"""One fresh process = one pass of one workload.

``run.py`` spawns this file once per round, so every pass starts from
a cold interpreter -- what a user of ``python -m repro.harness`` pays --
and every round yields one set-up sample and one peak-memory sample.
The pass is untraced.  With ``--trace`` two more passes follow in the
same process: a *span* pass (the benchmark's own spans plus the
program's ``telemetry.recording()``; cheap) and a *profile* pass
(cProfile here and, through the program's ``REPRO_PROFILE_DIR`` hook, in
the pool workers).  The result goes to ``--result`` as JSON.
"""

import argparse
import cProfile
import gc
import glob
import hashlib
import json
import multiprocessing
import os
import platform
import pstats
import resource
import sys
import time
import traceback

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_now():
    """User+sys CPU seconds of this process and its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _digest(rows, snapshots):
    document = json.dumps({"rows": rows, "snapshots": snapshots},
                          sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(document.encode()).hexdigest()[:16]


_PROBE_ARRAY = numpy.arange(7 * 7 * 8, dtype=numpy.float64).reshape(
    7, 7, 8) / 97.0


def probe():
    """Seconds this host needs *now* for a fixed piece of work.

    The host's speed moves by tens of percent for minutes at a time
    (bench/README.md, "Estimator"), and it moves interpreter-bound and
    numpy-call-bound code together.  ``run.py`` divides every unit's
    time by the probes taken around it.  Half the probe is bytecode,
    half is numpy calls on an array as small as the program's own.
    """
    start = time.perf_counter()
    total = 0
    for i in range(80000):
        total += i * i % 7
    for _ in range(2000):
        squared = _PROBE_ARRAY * _PROBE_ARRAY
        squared.sum(axis=0)
        numpy.exp(-squared)
    return time.perf_counter() - start


#: A probe is reused by the units that follow it for this long, so the
#: 300 millisecond-sized replays of ``grid-pool`` do not each pay one.
PROBE_EVERY_S = 0.1


def run_pass(units, call=lambda unit: unit.run(), after_unit=None):
    """Run every unit once; returns ``(unit records, pass digest)``.

    Snapshots are collected the way ``harness ledger`` collects them;
    the digests cover rows *and* snapshots, so a change in any simulated
    statistic shows.  A unit that raises is recorded, not re-raised.
    Each record carries ``ref_s``, the mean of the probes before and
    after the unit.  Garbage of a finished trial is collected outside
    the timed region, so a unit's time and the pass's peak memory do
    not depend on which unit ran before it.
    """
    from repro.harness.parallel import collecting_snapshots

    records, all_rows = [], []
    probes, probed_at = [probe()], time.perf_counter()
    with collecting_snapshots() as sink:
        for unit in units:
            seen = len(sink.snapshots)
            rows, error = [], None
            cpu0, start = _cpu_now(), time.perf_counter()
            try:
                rows = call(unit)
            except Exception:  # noqa: BLE001 - reported as a failed unit
                error = traceback.format_exc()
            wall = time.perf_counter() - start
            cpu = _cpu_now() - cpu0
            snapshots = sink.snapshots[seen:]
            records.append({
                "name": unit.name, "trials": unit.trials, "wall_s": wall,
                "cpu_s": cpu, "error": error, "rows": rows,
                "digest": _digest(rows, snapshots),
                "tasks": sum(s["tasks"] for s in snapshots),
                "probe": len(probes) - 1,
            })
            all_rows.extend(rows)
            if after_unit is not None:
                after_unit(unit)
            if unit.trials:
                gc.collect()
            if time.perf_counter() - probed_at >= PROBE_EVERY_S:
                probes.append(probe())
                probed_at = time.perf_counter()
        digest = _digest(all_rows, sink.snapshots)
    probes.append(probe())
    for record in records:
        before = record.pop("probe")
        record["ref_s"] = (probes[before] + probes[before + 1]) / 2.0
    return records, digest


def _cache_counters(cache):
    if cache is None:
        return {}
    stats, ops = cache.stats(), cache.op_stats()
    return {"hits": stats["hits"], "misses": stats["misses"],
            "op_hits": ops["hits"], "op_misses": ops["misses"],
            "op_stores": ops["stores"]}


def span_pass(units):
    """The pass again under spans and the program's own telemetry."""
    import spans
    from repro.harness.runner import observe_clusters
    from repro.obs import (
        chrome_trace,
        compute_critical_path,
        records_of,
        run_snapshot,
        telemetry,
    )

    recorder = spans.SpanRecorder()
    clusters = []
    obs_records = 0

    def after_unit(unit):
        nonlocal obs_records
        # What the obs layer costs per finished cluster, priced from
        # outside through its public consumers.
        for cluster in clusters:
            with spans.span("obs.critical_path", trial=unit.name):
                path = compute_critical_path(cluster)
            with spans.span("obs.snapshot", trial=unit.name):
                run_snapshot(cluster, critical_path=path)
            with spans.span("obs.chrome_trace", trial=unit.name):
                chrome_trace(cluster)
            obs_records += len(records_of(cluster))
        del clusters[:]

    def in_span(unit):
        with spans.span("unit", trial=unit.name):
            return unit.run()

    with spans.recording(recorder), telemetry.recording() as rec, \
            observe_clusters(clusters.append):
        records, digest = run_pass(units, call=in_span,
                                   after_unit=after_unit)
    metrics = rec.metrics
    return {
        "digest": digest,
        "failed": sum(1 for r in records if r["error"]),
        "units": [{"wall_s": r["wall_s"], "ref_s": r["ref_s"]}
                  for r in records],
        "spans": recorder.totals(),
        "obs_records": obs_records,
        "phases": {name: row["wall_s"]
                   for name, row in rec.phase_totals().items()},
        "counters": {n: c.value for n, c in metrics.counters.items()},
        "gauges": {n: g.value for n, g in metrics.gauges.items()},
        "histograms": {
            n: {"count": h.count, "total": h.total, "mean": h.mean,
                "max": h.max}
            for n, h in metrics.histograms.items()
        },
        "trace_events": recorder.chrome_trace(f"bench:{units[0].name}"),
    }


def profile_pass(units, profile_dir):
    """The pass again under cProfile, folded onto the layers."""
    import layers
    from repro.obs.telemetry import PROFILE_DIR_ENV

    os.makedirs(profile_dir)
    os.environ[PROFILE_DIR_ENV] = profile_dir  # the workers' dumps
    profiler = cProfile.Profile()

    def profiled(unit):
        # Only the program is profiled, not the benchmark around it.
        profiler.enable()
        try:
            return unit.run()
        finally:
            profiler.disable()

    try:
        records, digest = run_pass(units, call=profiled)
    finally:
        del os.environ[PROFILE_DIR_ENV]
    stats = pstats.Stats(profiler)
    for dump in sorted(glob.glob(os.path.join(profile_dir, "*.prof"))):
        stats.add(dump)
    folded = layers.fold(stats.stats)
    folded.update(units=[{"wall_s": r["wall_s"], "ref_s": r["ref_s"]}
                         for r in records],
                  digest=digest,
                  failed=sum(1 for r in records if r["error"]))
    return folded


def _blas():
    try:
        info = numpy.show_config(mode="dicts")
        blas = info["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy: no structured config
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tmp", required=True,
                        help="an empty scratch directory of this pass")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    def build(tag):
        cache_dir = os.path.join(args.tmp, tag)
        os.makedirs(cache_dir)
        return workloads.build(args.workload, args.seed, args.mode, cache_dir)

    units, cache = build("cache-timed")
    ready_epoch = time.time()  # set-up ends here, the first unit starts
    records, digest = run_pass(units)
    result = {
        "workload": args.workload,
        "ready_epoch": ready_epoch,
        "units": records,
        "digest": digest,
        "cache": _cache_counters(cache),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "start_method": ("fork" if "fork" in
                         multiprocessing.get_all_start_methods()
                         else "spawn"),
        "pool_jobs": workloads.POOL_JOBS,
    }
    # Before the traced passes, so profiling does not count as memory
    # of the program.  ru_maxrss is KiB on Linux.
    result["maxrss_kib"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if args.trace:
        units, cache = build("cache-spans")
        result["spans"] = span_pass(units)
        result["spans"]["cache"] = _cache_counters(cache)
        units, _cache = build("cache-profile")
        result["profile"] = profile_pass(
            units, os.path.join(args.tmp, "profiles")
        )
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
