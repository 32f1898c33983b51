#!/usr/bin/env python3
"""The repo's benchmark: host cost of regenerating the paper's figures.

Two ways in, one code path:

``run.py --workload W --seed S --seconds T --trace 0|1``
    The contract of ``BENCHMARK.json``: one workload, rounds for ``T``
    seconds, every declared metric printed by name with its unit, and as
    the last line of standard output one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
    ``--trace 0``, per-layer metrics with ``--trace 1``).

``run.py --seed S [--rounds R] [--out FILE] [--trace-out FILE]``
    Every workload: ``R`` untraced rounds taken round-robin (W1 W2 W3
    W4, W1 ...) so a slow phase of the host spreads over all of them,
    then one traced pass each.  ``--check-only`` is one round with no
    timing claims; ``--smoke`` is the smallest cell of each workload.

This process never imports ``repro``.  It spawns ``child.py`` -- one
fresh process per pass, one at a time -- and reads the pass's result
file.  See ``bench/README.md`` for the metrics and the estimator.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
LEDGER = os.path.join(ROOT, "benchmarks", "ledger", "fig10c-quick.json")

WORKLOADS = ("neuro-grid", "astro-grid", "steps-sim", "grid-pool")
SERIAL_REFERENCE = "grid-serial"
DEFAULT_ROUNDS = 9

#: One BLAS thread and a fixed string hash: what is left to vary between
#: two passes of this deterministic program is the host.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

#: Every timed unit is scaled by ``REF_S / ref_s``: ``ref_s`` is what the
#: fixed probe in ``child.py`` took around the unit, ``REF_S`` what it
#: takes on the host the first numbers were measured on when that host
#: is quiet.  Times are therefore seconds on a host of that speed.
REF_S = 0.0100

#: A pass takes seconds; one that takes this long is hung.
CHILD_TIMEOUT_S = 150


def spawn_child(workload, seed, mode, trace, tmp_root):
    """Run one pass in a fresh process; returns its result or ``None``.

    The child gets its own process group, so a hung pass is killed
    together with any pool workers it started.
    """
    tmp = tempfile.mkdtemp(dir=tmp_root)
    result_path = tmp + ".json"
    env = dict(os.environ, **PINNED_ENV)
    env.pop("REPRO_PROFILE_DIR", None)
    command = [sys.executable, CHILD, "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--tmp", tmp,
               "--result", result_path]
    if trace:
        command.append("--trace")
    spawn_epoch = time.time()
    proc = subprocess.Popen(command, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    if code != 0:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        print(f"bench: pass of {workload} "
              f"{'timed out' if code is None else f'exited {code}'}",
              file=sys.stderr)
        return None
    with open(result_path) as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready_epoch"] - spawn_epoch
    shutil.rmtree(tmp, ignore_errors=True)
    os.unlink(result_path)
    return result


class WorkloadRun:
    """The passes of one workload and what they add up to."""

    def __init__(self, name, seed, mode, tmp_root):
        self.name = name
        self.seed = seed
        self.mode = mode
        self.tmp_root = tmp_root
        self.rounds = []     # results of untraced passes
        self.traced = None   # the result that also has spans + profile
        self.serial = None   # grid-pool only: the serial reference pass
        self.crashed = 0     # passes that produced no result

    def _spawn(self, workload, trace=False):
        result = spawn_child(workload, self.seed, self.mode, trace,
                             self.tmp_root)
        if result is None:
            self.crashed += 1
        return result

    def prepare(self):
        """``grid-pool`` only: run its trials one by one in process, for
        the bytes and the serial times the pooled passes are held to."""
        if self.name == "grid-pool":
            self.serial = self._spawn(SERIAL_REFERENCE)

    def round(self, trace=False):
        """One more pass; a traced child's first pass is untraced and
        counts as a round like any other."""
        result = self._spawn(self.name, trace=trace)
        if result is not None:
            self.rounds.append(result)
            if trace:
                self.traced = result

    # -- output checks ---------------------------------------------------

    def check(self):
        """Count attempted and failed units over all rounds.

        Returns ``(attempted, failed, problems, bad)``; ``bad`` holds the
        ``(round, unit index)`` pairs that earn no time credit.  A unit fails
        when it raised or its output is wrong: its rows or snapshots
        differ from round 1, engines disagree on the result digest of
        one cohort, a pooled or replayed pass differs from the serial
        bytes, or (seed 0) a neuro cell misses its ledger makespan.
        """
        problems, bad = [], set()
        n_units = len(self.rounds[0]["units"]) if self.rounds else 1
        attempted = failed = self.crashed * n_units
        if self.crashed:
            problems.append(f"{self.crashed} pass(es) produced no result")
        if not self.rounds:
            return attempted, failed, problems, bad
        first = self.rounds[0]["units"]
        serial_digest = self.serial["digest"] if self.serial else None
        if self.name == "grid-pool" and self.serial is None:
            problems.append("no serial reference to compare against")
        ledger = self._ledger_makespans()
        for r, result in enumerate(self.rounds):
            cohorts = {}
            for unit in result["units"]:
                for row in unit["rows"]:
                    if "cohort" in row:
                        cohorts.setdefault(row["cohort"], set()).add(
                            row["digest"])
            split = {c for c, digests in cohorts.items() if len(digests) > 1}
            for i, (unit, ref) in enumerate(zip(result["units"], first)):
                why = None
                if unit["error"]:
                    why = "raised: " + unit["error"].strip().splitlines()[-1]
                elif (unit["name"], unit["digest"]) != (ref["name"],
                                                        ref["digest"]):
                    why = "rows or snapshots differ from round 1"
                elif any(row.get("cohort") in split for row in unit["rows"]):
                    why = "engines disagree on the result digest"
                elif self.name == "grid-pool" and \
                        unit["digest"] != serial_digest:
                    why = "differs from the serial reference bytes"
                elif ledger is not None:
                    why = _ledger_mismatch(unit, ledger)
                attempted += 1
                if why:
                    failed += 1
                    bad.add((r, i))
                    problems.append(f"round {r + 1} {unit['name']}: {why}")
        if self.traced is not None:
            for key in ("spans", "profile"):
                attempted += 1
                part = self.traced[key]
                if part["failed"] or part["digest"] != self.traced["digest"]:
                    failed += 1
                    problems.append(f"{key} pass: output differs from the "
                                    "untraced pass of the same process")
        return attempted, failed, problems, bad

    def _ledger_makespans(self):
        """``{(engine, subjects): makespan}`` of the checked-in Fig 10c
        quick baseline, when this run can be compared with it."""
        if self.name != "neuro-grid" or self.seed != 0 or \
                not os.path.exists(LEDGER):
            return None
        with open(LEDGER) as fh:
            runs = json.load(fh)["runs"]
        cells = [(kind, count) for count in (1, 2, 4)
                 for kind in ("dask", "myria", "spark")]
        return {cell: run["makespan_s"] for cell, run in zip(cells, runs)
                if cell[0] in run["label"]}

    # -- metrics ---------------------------------------------------------

    def end_to_end(self, bad):
        """End-to-end values, per-round values for the spread, and the
        raw sum of best-of-R unit times for the record."""
        summed = {"wall_s": 0.0, "cpu_s": 0.0}
        raw_best = 0.0
        for i in range(len(self.rounds[0]["units"])):
            good = [result["units"][i]
                    for r, result in enumerate(self.rounds)
                    if (r, i) not in bad]
            if good:  # a failed unit earns no time credit
                raw_best += min(unit["wall_s"] for unit in good)
                for key in summed:
                    summed[key] += statistics.median(
                        _scaled(unit, key) for unit in good)
        trials = sum(u["trials"] for u in self.rounds[0]["units"])
        per_round = {
            "wall_s": [_pass_seconds(r["units"]) for r in self.rounds],
            "cpu_s": [_pass_seconds(r["units"], "cpu_s")
                      for r in self.rounds],
            "peak_rss_mb": [r["maxrss_kib"] / 1024.0 for r in self.rounds],
            "setup_s": [r["setup_s"] * REF_S / r["units"][0]["ref_s"]
                        for r in self.rounds],
        }
        per_round["trials_per_s"] = [trials / w for w in per_round["wall_s"]]
        values = {
            "wall_s": summed["wall_s"],
            "cpu_s": summed["cpu_s"],
            "trials_per_s": trials / summed["wall_s"],
            "peak_rss_mb": statistics.median(per_round["peak_rss_mb"]),
            "setup_s": statistics.median(per_round["setup_s"]),
        }
        return values, per_round, raw_best

    def sim_total_s(self):
        """Virtual seconds over the rows the workload computes (replays
        on ``grid-pool`` repeat the cold rows and are left out)."""
        return sum(row["simulated_s"]
                   for unit in self.rounds[0]["units"] if unit["trials"]
                   for row in unit["rows"])

    def per_layer(self):
        """Every per-layer value, from the traced child of this run."""
        traced = self.traced
        spans, profile = traced["spans"], traced["profile"]
        computed = [u for u in traced["units"] if u["trials"]]
        rows = [row for u in computed for row in u["rows"]]
        tasks = sum(u["tasks"] for u in computed)
        untraced_wall = _pass_seconds(traced["units"])
        out = {"sim_total_s": self.sim_total_s()}
        for layer, calls in profile["calls"].items():
            out[f"{layer}.self_s"] = profile["self_s"][layer]
            out[f"{layer}.calls"] = calls
        for kernel, row in profile["kernels"].items():
            out[f"algorithms.{kernel}.s"] = row["s"]
            out[f"algorithms.{kernel}.calls"] = row["calls"]
        out["cluster.run_s"] = profile["cluster_run"]["s"]
        out["cluster.run_calls"] = profile["cluster_run"]["calls"]
        out["cluster.tasks"] = tasks
        out["cluster.self_us_per_task"] = (
            1e6 * profile["self_s"].get("cluster", 0.0) / max(tasks, 1))
        out["cluster.sim_s_per_host_s"] = out["sim_total_s"] / untraced_wall

        span_s = spans["spans"]
        for name in ("data.generate", "pipelines.stage", "plan.build",
                     "plan.optimize", "plan.route", "engines.lower",
                     "engines.run", "obs.snapshot", "obs.critical_path",
                     "obs.chrome_trace"):
            out[name + "_s"] = span_s.get(name, 0.0)
        out["data.real_bytes"] = sum(r.get("real_bytes", 0) for r in rows)
        out["plan.rewrites"] = sum(r.get("rewrites", 0) for r in rows)
        out["obs.records"] = spans["obs_records"]

        phases, hist = spans["phases"], spans["histograms"]
        for metric, phase in (("pool_startup_s", "pool-startup"),
                              ("dispatch_s", "dispatch"),
                              ("cache_lookup_s", "cache-lookup"),
                              ("cache_store_s", "cache-store"),
                              ("row_assemble_s", "row-assemble"),
                              ("result_merge_s", "result-merge")):
            out["harness." + metric] = phases.get(phase, 0.0)
        execs = hist.get("worker.worker-exec_s", {})
        out["harness.worker_exec_mean_s"] = execs.get("mean", 0.0)
        out["harness.worker_exec_max_s"] = execs.get("max", 0.0)
        out["harness.pool_utilization"] = spans["gauges"].get(
            "pool.utilization", 0.0)
        out["harness.chunk_size"] = spans["gauges"].get("pool.chunk_size", 0)
        out["harness.payload_bytes_mean"] = hist.get(
            "cache.payload_bytes", {}).get("mean", 0.0)
        cache = spans["cache"]
        hits, misses = cache.get("hits", 0), cache.get("misses", 0)
        op_hits, op_misses = cache.get("op_hits", 0), cache.get("op_misses", 0)
        out["harness.cache_hits"] = hits
        out["harness.cache_misses"] = misses
        out["harness.cache_stores"] = spans["counters"].get("cache.stores", 0)
        out["harness.hit_ratio"] = hits / max(hits + misses, 1)
        out["harness.op_cache_hits"] = op_hits
        out["harness.op_cache_stores"] = cache.get("op_stores", 0)
        out["harness.op_hit_ratio"] = op_hits / max(op_hits + op_misses, 1)
        # Pool-only numbers; on the serial workloads they read 0.
        cold = [_scaled(u) for r in self.rounds for u in r["units"]
                if u["name"] == "cold"]
        warm = [_scaled(u) for r in self.rounds for u in r["units"]
                if u["trials"] == 0]
        out["harness.cold_pass_s"] = statistics.median(cold) if cold else 0.0
        out["harness.warm_sweep_s"] = statistics.median(warm) if warm else 0.0
        out["harness.pool_inflation"] = out["harness.pool_speedup"] = 0.0
        if self.serial is not None and cold:
            serial = [_scaled(u) for u in self.serial["units"]]
            in_pool = (out["harness.worker_exec_mean_s"] * REF_S
                       / spans["units"][0]["ref_s"])
            out["harness.pool_inflation"] = in_pool / statistics.mean(serial)
            out["harness.pool_speedup"] = (
                sum(serial) / out["harness.cold_pass_s"])

        out["trace.coverage"] = profile["coverage"]
        out["trace.overhead_frac"] = (
            _pass_seconds(profile["units"]) / untraced_wall - 1.0)
        out["trace.py_calls"] = profile["py_calls"]
        return out


def _scaled(unit, key="wall_s"):
    """A unit's time at the reference host speed (see ``REF_S``)."""
    return unit[key] * REF_S / unit["ref_s"]


def _pass_seconds(units, key="wall_s"):
    return sum(_scaled(unit, key) for unit in units)


def _ledger_mismatch(unit, ledger):
    for row in unit["rows"]:
        want = ledger.get((row["engine"], row["subjects"]))
        if want is not None and round(row["simulated_s"], 6) != want:
            return (f"virtual seconds {row['simulated_s']:.6f} differ from "
                    f"the fig10c-quick ledger makespan {want}")
    return None


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def load_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def summarize(run, declaration, want_layers):
    """One workload's section of the result document."""
    attempted, failed, problems, bad = run.check()
    section = {"attempted": max(attempted, 1), "failed": failed,
               "correct": failed == 0, "problems": problems,
               "rounds": len(run.rounds), "end_to_end": {}, "per_layer": {}}
    if not run.rounds:
        return section
    values, per_round, raw_best = run.end_to_end(bad)
    section["raw_best_wall_s"] = raw_best
    for metric in declaration["end_to_end"]:
        name = metric["name"]
        section["end_to_end"][name] = {
            "value": values[name], "unit": metric["unit"],
            "rounds": per_round[name],
        }
    section["sim_total_s"] = run.sim_total_s()
    if want_layers and run.traced is not None:
        layers = run.per_layer()
        for metric in declaration["per_layer"]:
            section["per_layer"][metric["name"]] = {
                "value": layers[metric["name"]], "unit": metric["unit"],
            }
    return section


def print_section(name, section, timing_claims=True):
    print(f"== {name}: {section['rounds']} round(s), "
          f"{section['attempted']} unit(s) attempted, "
          f"{section['failed']} failed, "
          f"outputs {'correct' if section['correct'] else 'WRONG'}")
    for problem in section["problems"][:20]:
        print(f"   ! {problem}")
    if not timing_claims:
        return
    for metric, cell in section["end_to_end"].items():
        line = f"{metric:<34} {cell['unit']:<10} {cell['value']:.6g}"
        rounds = cell["rounds"]
        if len(rounds) >= 2:
            q1, q2, q3 = statistics.quantiles(rounds, n=4)
            line += (f"   per-round median {q2:.4g} "
                     f"quartiles {q1:.4g}..{q3:.4g}")
        print(line)
    if "sim_total_s" in section:
        print(f"{'sim_total_s':<34} {'virtual_s':<10} "
              f"{section['sim_total_s']:.6f}")
        print(f"   for the record: raw sum of best-of-rounds unit wall "
              f"times {section['raw_best_wall_s']:.6g} s")
    for metric, cell in section["per_layer"].items():
        if metric != "sim_total_s":
            print(f"{metric:<34} {cell['unit']:<10} {cell['value']:.6g}")


def host_info(runs, seed, rounds):
    """The facts a reader needs to compare two result files."""
    child = next((r for run in runs for r in run.rounds), {})
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu_model": model,
        "platform": platform.platform(),
        "python": child.get("python"), "numpy": child.get("numpy"),
        "blas": child.get("blas"), "env": PINNED_ENV,
        "start_method": child.get("start_method"),
        "pool_jobs": child.get("pool_jobs"),
        "git_sha": sha, "seed": seed, "rounds": rounds,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (the BENCHMARK.json contract); "
                             "default: all of them, round-robin")
    parser.add_argument("--seed", type=int, default=0,
                        help="0: the figures' own cohort; k>0: a fresh "
                             "cohort and unit order")
    parser.add_argument("--seconds", type=float,
                        help="with --workload: keep starting rounds for "
                             "this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 runs the traced pass and "
                             "reports the per-layer metrics")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="without --seconds: untraced rounds per "
                             "workload (default %(default)s)")
    parser.add_argument("--check-only", action="store_true",
                        help="one round, outputs checked, no timing claims")
    parser.add_argument("--smoke", action="store_true",
                        help="smallest cell of each workload, traced")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--trace-out",
                        help="write the traced passes' spans here as "
                             "Chrome-trace JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    declaration = load_declaration()
    names = (args.workload,) if args.workload else WORKLOADS
    mode = "smoke" if args.smoke else "full"
    contract = args.workload is not None and not args.smoke \
        and not args.check_only
    want_layers = args.smoke or (
        bool(args.trace) if contract else not args.check_only)

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=scratch)
    started = time.monotonic()
    try:
        runs = [WorkloadRun(n, args.seed, mode, tmp_root) for n in names]
        for run in runs:
            run.prepare()
        # The traced child's first pass is a round too, so the modes
        # that only want the layers start no other.
        deadline = None
        if args.smoke or (contract and want_layers):
            rounds = 0
        elif args.check_only:
            rounds = 1
        elif args.seconds is not None:
            rounds, deadline = sys.maxsize, started + args.seconds
        else:
            rounds = args.rounds
        for _ in range(rounds):
            begun = time.monotonic()
            for run in runs:
                run.round()
            took = time.monotonic() - begun
            if deadline is not None and time.monotonic() + took > deadline:
                break  # one more round would not fit
        if want_layers:
            for run in runs:
                run.round(trace=True)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it

    document = {
        "schema": 1,
        "host": host_info(runs, args.seed, max(len(r.rounds) for r in runs)),
        "mode": "check-only" if args.check_only else mode,
        "workloads": {run.name: summarize(run, declaration, want_layers)
                      for run in runs},
        "claim": None,
    }
    print("host " + json.dumps(document["host"], sort_keys=True))
    for name, section in document["workloads"].items():
        print_section(name, section, timing_claims=not args.check_only)
    if args.check_only:
        print("check-only: one round, no timing claims")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.trace_out:
        events = [e for run in runs if run.traced
                  for e in run.traced["spans"]["trace_events"]]
        with open(args.trace_out, "w") as fh:
            json.dump({"traceEvents": events}, fh)
    failed = sum(s["failed"] for s in document["workloads"].values())
    print(json.dumps({
        "elapsed_s": round(time.monotonic() - started, 3),
        "failed": failed, "claim": None,
    }))
    if contract:
        section = document["workloads"][args.workload]
        reported = section["per_layer" if want_layers else "end_to_end"]
        print(json.dumps({
            "correct": section["correct"],
            "attempted": section["attempted"],
            "failed": section["failed"],
            "metrics": {name: {"value": cell["value"], "unit": cell["unit"]}
                        for name, cell in reported.items()},
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
