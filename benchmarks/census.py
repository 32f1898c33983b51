"""Reachability census of ``src/repro``: what no CLI path, figure or
example reaches, and who reads each survivor.

Run it from the repository root (about a minute on a 2-core host)::

    python benchmarks/census.py

Every path in ``PATHS`` -- the CLI commands CI runs, a cold and a warm
cached ``--jobs 2`` grid, the trace, optimize, ledger and compare
subcommands, and the five examples -- runs in a fresh interpreter
under a ``sys.setprofile`` hook that records each called code object's
``(file, first line)``.  The hook is a ``sitecustomize`` module on the
child's ``PYTHONPATH``, so forked pool workers record too: they write
what they called after every trial.  An ``ast`` walk of ``src/repro`` lists
every function and method; one whose ``(file, first line)`` no path
recorded is unreached.  Only the outermost unreached span counts: a
closure inside an unreached function is part of that function's lines.

Every unreached span must match an entry of ``census_survivors.txt``,
which gives its class and names its reader:

1. reached only by paths the census does not run (fault recovery,
   pool and cache failure paths, exception classes, ``__repr__``);
2. paper substrate a test, an example or DESIGN.md names a reader for;
4. read only by the frozen benchmark (``bench/``) or a gate under
   ``benchmarks/``.

Class 3 is what is left: API whose only readers are tests of itself.
The census prints the four classes and exits 1 when class 3 is not
empty, when a survivor entry matches no unreached span (the function
is gone or a path reaches it now), or when an entry's reader is not a
file of the repository.
"""

import ast
import fnmatch
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
SURVIVORS = os.path.join(ROOT, "benchmarks", "census_survivors.txt")
CLASSES = {
    1: "reached only by paths the census does not run",
    2: "paper substrate with a named reader",
    3: "API read only by its own tests",
    4: "read only by the frozen benchmark or a benchmarks/ gate",
}

#: The ledger baselines the CI job records: every checked-in quick file.
LEDGER_FIGURES = sorted(
    name[:-len("-quick.json")]
    for name in os.listdir(os.path.join(ROOT, "benchmarks", "ledger"))
    if name.endswith("-quick.json") and name != "opt-quick.json"
)
HARNESS = ("-m", "repro.harness")
#: A census path takes seconds; one that takes this long is hung.
COMMAND_TIMEOUT_S = 600

#: Census paths.  Each chain runs its commands in order in one scratch
#: directory (so the second ``--jobs 2`` grid replays the first one's
#: cache); chains run side by side.
PATHS = {
    "serial": [
        HARNESS + ("all", "--quick", "--no-cache"),
        HARNESS + ("fig10c", "fig10d", "--quick", "--optimize",
                   "--route", "auto", "--no-cache"),
        HARNESS + ("--list",),
        HARNESS + ("f16", "--quick", "--no-cache"),
    ],
    "pooled": [
        HARNESS + ("all", "--quick", "--jobs", "2"),
        HARNESS + ("all", "--quick", "--jobs", "2"),
        HARNESS + ("ledger", *LEDGER_FIGURES, "--optimize", "--quick",
                   "--jobs", "2", "--out-dir", "ledger-out"),
        HARNESS + ("compare",
                   os.path.join(ROOT, "benchmarks", "ledger",
                                "fig12c-quick.json"),
                   "ledger-out/fig12c-quick.json"),
        HARNESS + ("compare", "--json",
                   os.path.join(ROOT, "benchmarks", "ledger",
                                "fig10c-quick.json"),
                   "ledger-out/fig10c-quick.json"),
    ],
    "trace": [
        HARNESS + ("trace", "neuro", "--quick", "--subjects", "1",
                   "--nodes", "2", "--critical-path", "--by-op",
                   "--out", "neuro-trace.json"),
        HARNESS + ("trace", "neuro", "--engine", "myria", "--quick",
                   "--subjects", "1", "--nodes", "2", "--critical-path",
                   "--by-op", "--out", "myria-trace.json"),
        HARNESS + ("trace", "astro", "--engine", "dask", "--quick",
                   "--nodes", "4", "--critical-path", "--out", "a.json"),
        HARNESS + ("trace", "fig12a", "--quick", "--out", "f.json"),
        HARNESS + ("trace", "neuro", "--quick", "--json", "--out", "j.json"),
        HARNESS + ("optimize", "--quick"),
        HARNESS + ("optimize", "--quick", "--engines",
                   "dask,myria,spark,scidb,tensorflow", "--nodes", "4"),
    ],
    "examples": [
        (os.path.join(ROOT, "examples", name),)
        for name in sorted(os.listdir(os.path.join(ROOT, "examples")))
        if name.endswith(".py")
    ],
}

#: The hook every census child loads at startup.  A process writes what
#: it called at exit; a forked pool worker, which multiprocessing ends
#: with ``os._exit`` or SIGTERM, writes it after every trial instead
#: (each return from ``parallel._run_one``).
SITECUSTOMIZE = '''
import atexit, os, sys, threading

_seen = set()
_add = _seen.add
_prefix = os.environ["REPRO_CENSUS_SRC"]
_out = os.environ["REPRO_CENSUS_OUT"]
_name = [os.urandom(8).hex()]


def _hook(frame, event, arg):
    if event == "call":
        _add(frame.f_code)
    elif event == "return" and frame.f_code.co_name == "_run_one":
        _flush()


def _flush():
    lines = {f"{code.co_filename}\\t{code.co_firstlineno}\\n"
             for code in list(_seen) if code.co_filename.startswith(_prefix)}
    with open(os.path.join(_out, _name[0] + ".hits"), "w") as fh:
        fh.writelines(sorted(lines))


def _rename():
    _name[0] = os.urandom(8).hex()


atexit.register(_flush)
os.register_at_fork(after_in_child=_rename)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''


@dataclass(frozen=True)
class Function:
    """One ``def`` under the census root."""

    module: str
    qualname: str
    path: str
    start: int  # first line, decorators included (``co_firstlineno``)
    end: int
    parent: object  # the enclosing Function, or None

    @property
    def name(self):
        return f"{self.module}:{self.qualname}"

    @property
    def lines(self):
        return self.end - self.start + 1


def functions(root):
    """Every function and method defined in the ``.py`` files under the
    package directory ``root``, with the qualname Python gives it."""
    package = os.path.basename(root)
    found = []
    for directory, _, files in sorted(os.walk(root)):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.realpath(os.path.join(directory, filename))
            rel = os.path.relpath(os.path.join(directory, filename), root)
            parts = [package] + rel[:-3].split(os.sep)
            if parts[-1] == "__init__":
                parts.pop()
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            _walk(tree, ".".join(parts), path, "", None, found)
    return found


def _walk(node, module, path, prefix, parent, found):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            start = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            fn = Function(module, prefix + child.name, path, start,
                          child.end_lineno, parent)
            found.append(fn)
            _walk(child, module, path, fn.qualname + ".<locals>.", fn,
                  found)
        elif isinstance(child, ast.ClassDef):
            _walk(child, module, path, prefix + child.name + ".", parent,
                  found)
        else:
            _walk(child, module, path, prefix, parent, found)


def unreached_spans(funcs, hits):
    """The outermost functions whose ``(path, start)`` is not in
    ``hits``: an unreached function inside an unreached one is part of
    the outer span and is not listed again."""
    reached = {(f.path, f.start) for f in funcs if (f.path, f.start) in hits}

    def covered(fn):
        parent = fn.parent
        while parent is not None:
            if (parent.path, parent.start) not in reached:
                return True
            parent = parent.parent
        return False

    return [f for f in funcs
            if (f.path, f.start) not in reached and not covered(f)]


@dataclass(frozen=True)
class Survivor:
    klass: int
    pattern: str
    reader: str


def load_survivors(path=SURVIVORS):
    """``<class> <module:qualname pattern> <reader ...>`` per line;
    ``#`` starts a comment."""
    entries = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                klass, pattern, reader = line.split(None, 2)
                entries.append(Survivor(int(klass), pattern, reader))
    return entries


def classify(spans, survivors):
    """``({class: [(span, survivor)]}, stale survivors)``: each span
    goes to the first entry whose pattern matches its name, or to class
    3 with no entry; an entry that matches no span is stale."""
    classes = {klass: [] for klass in CLASSES}
    used = set()
    for span in spans:
        entry = next((s for s in survivors
                      if fnmatch.fnmatchcase(span.name, s.pattern)), None)
        if entry is None:
            classes[3].append((span, None))
        else:
            classes[entry.klass].append((span, entry))
            used.add(entry)
    return classes, [s for s in survivors if s not in used]


def _run_chain(commands, out_dir, hook_dir):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONPATH"}
    env.update(PYTHONPATH=os.pathsep.join((hook_dir, SRC)),
               PYTHONHASHSEED="0", REPRO_CENSUS_OUT=out_dir,
               REPRO_CENSUS_SRC=os.path.realpath(PACKAGE) + os.sep)
    cwd = tempfile.mkdtemp(prefix="census-")
    try:
        for command in commands:
            started = time.perf_counter()
            proc = subprocess.Popen((sys.executable,) + command, cwd=cwd,
                                    env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE, text=True,
                                    start_new_session=True)
            try:
                _, stderr = proc.communicate(timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise RuntimeError(f"census path hung: {command}") from None
            label = " ".join(os.path.basename(c) for c in command[:4])
            print(f"  {label} ... exit {proc.returncode}"
                  f" ({time.perf_counter() - started:.1f} s)", flush=True)
            if proc.returncode != 0:
                raise RuntimeError(f"census path failed: {command}\n"
                                   + stderr[-2000:])
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


def record():
    """Run every census path, two chains at a time; the set of
    ``(path, first line)`` any of their processes called."""
    hook_dir = tempfile.mkdtemp(prefix="census-hook-")
    out_dir = tempfile.mkdtemp(prefix="census-hits-")
    try:
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as fh:
            fh.write(SITECUSTOMIZE)
        with ThreadPoolExecutor(2) as pool:
            for future in [pool.submit(_run_chain, chain, out_dir, hook_dir)
                           for chain in PATHS.values()]:
                future.result()
        hits = set()
        for name in os.listdir(out_dir):
            with open(os.path.join(out_dir, name)) as fh:
                for line in fh:
                    path, start = line.rstrip("\n").split("\t")
                    hits.add((os.path.realpath(path), int(start)))
        return hits
    finally:
        shutil.rmtree(hook_dir, ignore_errors=True)
        shutil.rmtree(out_dir, ignore_errors=True)


def report(funcs, spans, classes, stale, survivors):
    """Print the census; returns its exit code."""
    print(f"{len(funcs)} functions under src/repro, {len(spans)} outermost"
          f" unreached spans, {sum(s.lines for s in spans)} lines")
    for klass, title in CLASSES.items():
        members = classes[klass]
        print(f"\nclass {klass}: {title}: {len(members)} spans,"
              f" {sum(span.lines for span, _ in members)} lines")
        for span, entry in members:
            where = (f"{os.path.relpath(span.path, ROOT)}:{span.start}"
                     if entry is None else entry.reader)
            print(f"  {span.name} ({span.lines} lines)  {where}")
    unread = [s for s in survivors if not os.path.isfile(
        os.path.join(ROOT, s.reader.split()[0]))]
    for entry in stale:
        print(f"stale survivor entry (matches no unreached function):"
              f" {entry.pattern}")
    for entry in unread:
        print(f"survivor {entry.pattern}: reader {entry.reader.split()[0]!r}"
              " is not a file of the repository")
    return 1 if classes[3] or stale or unread else 0


def main():
    started = time.perf_counter()
    print("census paths:", flush=True)
    hits = record()
    funcs = functions(PACKAGE)
    spans = unreached_spans(funcs, hits)
    survivors = load_survivors()
    classes, stale = classify(spans, survivors)
    print(f"recorded in {time.perf_counter() - started:.0f} s\n")
    return report(funcs, spans, classes, stale, survivors)


if __name__ == "__main__":
    sys.exit(main())
