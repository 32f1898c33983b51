"""The reachability census's classifier, on a fixture module.

``benchmarks/census.py`` lists every function under a package with an
``ast`` walk, keys it by ``(file, first line)`` as a profile hook sees
its code object, and reports the outermost spans no recorded call
reached.
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

CENSUS = Path(__file__).resolve().parents[1] / "benchmarks" / "census.py"

FIXTURE = '''
def called():
    def closure():
        return 1
    return 2


def uncalled():
    def inner():
        return 3
    return inner


def decorate(fn):
    return fn


class Box:
    @staticmethod
    @decorate
    def method():
        return 4
'''


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fixture_package(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(textwrap.dedent(FIXTURE))
    return root


def _hits_of(path, calls):
    """Run ``calls(module)`` under a profile hook; the ``(file, first
    line)`` of every code object it called."""
    spec = importlib.util.spec_from_file_location("census_fixture", path)
    module = importlib.util.module_from_spec(spec)
    hits = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            hits.add((str(Path(code.co_filename).resolve()),
                      code.co_firstlineno))

    spec.loader.exec_module(module)
    sys.setprofile(hook)
    try:
        calls(module)
    finally:
        sys.setprofile(None)
    return hits


def test_functions_carry_the_qualnames_python_gives_them(census,
                                                         fixture_package):
    names = [f.name for f in census.functions(str(fixture_package))]
    assert names == [
        "pkg.mod:called", "pkg.mod:called.<locals>.closure",
        "pkg.mod:uncalled", "pkg.mod:uncalled.<locals>.inner",
        "pkg.mod:decorate", "pkg.mod:Box.method",
    ]


def test_the_outermost_uncalled_span_counts_once(census, fixture_package):
    funcs = census.functions(str(fixture_package))
    hits = _hits_of(fixture_package / "mod.py",
                    lambda mod: (mod.called(), mod.Box.method()))
    spans = census.unreached_spans(funcs, hits)
    # ``closure`` sits in a called function, so it is a span of its own;
    # ``inner`` sits in ``uncalled`` and is counted inside its 4 lines.
    # ``decorate`` ran at import, before the hook; ``Box.method`` is keyed
    # by its first decorator's line, as its code object is.
    assert [(s.name, s.lines) for s in spans] == [
        ("pkg.mod:called.<locals>.closure", 2),
        ("pkg.mod:uncalled", 4),
        ("pkg.mod:decorate", 2),
    ]


def test_classify_sorts_spans_by_survivor_entry(census, fixture_package):
    funcs = census.functions(str(fixture_package))
    spans = census.unreached_spans(funcs, set())
    listed = census.Survivor(2, "pkg.mod:uncalled", "tests/test_census.py")
    unused = census.Survivor(1, "pkg.mod:gone", "tests/test_census.py")
    classes, stale = census.classify(spans, [listed, unused])
    assert [s.name for s, _ in classes[2]] == ["pkg.mod:uncalled"]
    assert [s.name for s, _ in classes[3]] == [
        "pkg.mod:called", "pkg.mod:decorate", "pkg.mod:Box.method",
    ]
    assert stale == [unused]
