"""Command-line runner: regenerate any of the paper's tables/figures.

Usage::

    python -m repro.harness --list
    python -m repro.harness table1 fig10a fig12a
    python -m repro.harness fig10c --quick --jobs 4
    python -m repro.harness all --quick
    python -m repro.harness trace neuro --engine spark --out trace.json
    python -m repro.harness fig10c --quick --optimize --route auto
    python -m repro.harness optimize --quick --check
    python -m repro.harness ledger --optimize --quick
    python -m repro.harness ledger fig12c --quick
    python -m repro.harness ledger --figure fig10c --jobs 4 --quick
    python -m repro.harness compare benchmarks/ledger/fig12c-quick.json new.json
    python -m repro.harness bench --jobs 4

``--quick`` swaps the benchmark dataset profile for a miniature one, so
every experiment finishes in seconds (shapes are still indicative but
noisier; the pytest benchmark suite asserts them at the full profile).

``--jobs N`` fans a figure's independent trials across N worker
processes; results are byte-identical to ``--jobs 1`` (DESIGN.md
section 11).  Trials are cached content-addressed under
``.harness-cache/`` (or ``$REPRO_CACHE_DIR``) so re-running a figure
replays instantly; ``--no-cache`` disables that, and any edit to the
``repro`` source tree or a relevant cost constant invalidates the
affected entries automatically.  ``bench`` times serial vs parallel vs
warm-cache execution per figure and writes ``BENCH_harness.json``.

The ``trace`` subcommand runs one experiment with the observability
layer attached, prints the "where did the time go" breakdown (plus the
critical-path blame report with ``--critical-path``), and writes a
Chrome ``trace_event`` JSON file for chrome://tracing or Perfetto.

The ``ledger`` subcommand records versioned run snapshots under
``benchmarks/ledger/``; ``compare`` diffs two snapshots and exits
non-zero when the candidate regressed past the tolerance.
"""

import argparse
import json
import sys

from repro.harness import experiments as E
from repro.harness.cache import TrialCache
from repro.harness.parallel import collecting_snapshots, configured
from repro.harness.report import (
    print_breakdown,
    print_series,
    print_snapshot_blame,
    print_table,
)
from repro.harness.runner import (
    DEFAULT_NODES,
    astro_visits,
    neuro_subjects,
    observe_clusters,
)

QUICK_NEURO = {"scale": 20, "n_volumes": 24}
QUICK_ASTRO = {"scale": 100, "n_sensors": 6}


def _run_table1(_quick):
    tables = E.table1()
    print_table(tables["neuro"], title="Table 1 (neuroscience)")
    print_table(tables["astro"], title="Table 1 (astronomy)")


def _run_fig10a(_quick):
    print_table(E.fig10a_sizes(), title="Figure 10a: neuro data sizes (GB)")


def _run_fig10b(_quick):
    print_table(E.fig10b_sizes(), title="Figure 10b: astro data sizes (GB)")


def _run_fig10c(quick, optimize=False, route=None):
    kwargs = {"optimize": optimize}
    if route == "auto":
        kwargs["engines"] = ("auto",)
    rows = E.fig10c_neuro_end_to_end(
        subject_counts=(1, 2, 4) if quick else E.NEURO_SIZES,
        profile=QUICK_NEURO if quick else None,
        **kwargs,
    )
    suffix = " [optimized]" if optimize else ""
    print_series(rows, "subjects", "engine",
                 title=f"Figure 10c: neuro end-to-end (simulated s){suffix}")
    return rows


def _run_fig10d(quick, optimize=False, route=None):
    kwargs = {"optimize": optimize}
    if route == "auto":
        kwargs["engines"] = ("auto",)
    rows = E.fig10d_astro_end_to_end(
        visit_counts=(2, 4) if quick else E.ASTRO_SIZES,
        profile=QUICK_ASTRO if quick else None,
        **kwargs,
    )
    suffix = " [optimized]" if optimize else ""
    print_series(rows, "visits", "engine",
                 title=f"Figure 10d: astro end-to-end (simulated s){suffix}")
    return rows


def _run_fig10e(quick):
    rows = E.fig10e_neuro_normalized(rows=_run_fig10c(quick))
    print_series(rows, "subjects", "engine", value="normalized",
                 title="Figure 10e: normalized runtime per subject")


def _run_fig10f(quick):
    rows = E.fig10f_astro_normalized(rows=_run_fig10d(quick))
    print_series(rows, "visits", "engine", value="normalized",
                 title="Figure 10f: normalized runtime per visit")


def _run_fig10g(quick):
    rows = E.fig10g_neuro_speedup(
        node_counts=(4, 8) if quick else E.CLUSTER_SIZES,
        n_subjects=4 if quick else 25,
        profile=QUICK_NEURO if quick else None,
    )
    print_series(rows, "nodes", "engine",
                 title="Figure 10g: neuro runtime vs cluster size")


def _run_fig10h(quick):
    rows = E.fig10h_astro_speedup(
        node_counts=(4, 8) if quick else E.CLUSTER_SIZES,
        n_visits=4 if quick else 24,
        profile=QUICK_ASTRO if quick else None,
    )
    print_series(rows, "nodes", "engine",
                 title="Figure 10h: astro runtime vs cluster size")


def _run_fig11(quick):
    with collecting_snapshots() as collected:
        rows = E.fig11_ingest(
            subject_counts=(1, 2) if quick else E.NEURO_SIZES,
            profile=QUICK_NEURO if quick else None,
        )
    print_series(rows, "subjects", "system",
                 title="Figure 11: ingest time (simulated s, log y)")
    print_snapshot_blame(collected.snapshots,
                         title="Figure 11 blame (critical path)")
    return rows


def _run_fig12a(quick):
    rows = E.fig12a_filter(
        n_subjects=2 if quick else 25,
        profile=QUICK_NEURO if quick else None,
    )
    print_table(rows, title="Figure 12a: filter step")


def _run_fig12b(quick):
    rows = E.fig12b_mean(
        n_subjects=2 if quick else 25,
        profile=QUICK_NEURO if quick else None,
    )
    print_table(rows, title="Figure 12b: mean step")


def _run_fig12c(quick):
    rows = E.fig12c_denoise(
        n_subjects=2 if quick else 25,
        profile=QUICK_NEURO if quick else None,
    )
    print_table(rows, title="Figure 12c: denoise step")


def _run_fig12d(quick):
    rows = E.fig12d_coadd(
        n_visits=4 if quick else 24,
        profile=QUICK_ASTRO if quick else None,
    )
    print_table(rows, title="Figure 12d: co-addition step")


def _run_fig13(quick):
    rows = E.fig13_myria_workers(
        n_subjects=2 if quick else 25,
        n_nodes=4 if quick else 16,
        profile=QUICK_NEURO if quick else None,
    )
    print_table(rows, title="Figure 13: Myria workers per node")


def _run_fig14(quick):
    rows = E.fig14_spark_partitions(
        partition_counts=(1, 4, 16) if quick else None or
        (1, 2, 4, 8, 16, 32, 64, 97, 128, 192, 256),
        profile={"scale": 20, "n_volumes": 24} if quick else None,
    )
    print_table(rows, title="Figure 14: Spark input partitions")


def _run_fig15(quick):
    rows = E.fig15_myria_memory(
        visit_counts=(2,) if quick else (2, 8, 24, 96),
        n_nodes=4 if quick else 16,
        profile=QUICK_ASTRO if quick else None,
    )
    print_series(rows, "visits", "mode",
                 title="Figure 15: Myria memory management")


def _run_s531(quick):
    rows = E.s531_scidb_chunks(
        chunk_sizes=(500, 1000) if quick else (500, 1000, 1500, 2000),
        n_visits=4 if quick else 24,
        profile=QUICK_ASTRO if quick else None,
    )
    print_table(rows, title="Section 5.3.1: SciDB chunk size")


def _run_s533(quick):
    rows = E.s533_spark_caching(
        subject_counts=(2,) if quick else (1, 4, 12, 25),
        n_nodes=4 if quick else 16,
        profile=QUICK_NEURO if quick else None,
    )
    print_series(rows, "subjects", "cached",
                 title="Section 5.3.3: Spark input caching")


def _run_f16(quick):
    with collecting_snapshots() as collected:
        rows = E.f16_recovery(
            n_subjects=2 if quick else 4,
            profile=QUICK_NEURO if quick else None,
        )
    print_table(
        rows,
        title="F16: recovery overhead, 1 of 16 nodes killed at 50% progress",
    )
    print_snapshot_blame(collected.snapshots,
                         title="F16 blame (critical path)")
    return rows


def _run_opt(quick):
    rows = E.opt_comparison(
        n_subjects=2 if quick else 4,
        n_visits=2 if quick else 4,
        neuro_profile=QUICK_NEURO if quick else None,
        astro_profile=QUICK_ASTRO if quick else None,
    )
    print_table(
        rows, title="Optimizer: naive vs optimized per (pipeline, engine)"
    )
    return rows


def _opt_failures(rows):
    """Gate violations in naive-vs-optimized comparison rows."""
    failures = []
    for row in rows:
        cell = f"{row['pipeline']}/{row['engine']}"
        if row["optimized_s"] > row["naive_s"] + 1e-6:
            failures.append(
                f"{cell}: optimized makespan {row['optimized_s']}s exceeds"
                f" naive {row['naive_s']}s"
            )
        if not row["identical"]:
            failures.append(
                f"{cell}: optimized results are not byte-identical to naive"
            )
    return failures


def _run_ablation(quick):
    rows = E.ablation_scidb_incremental(
        n_visits=4 if quick else 24,
        profile=QUICK_ASTRO if quick else None,
    )
    print_table(rows, title="Ablation: SciDB incremental iteration [34]")


def _run_ablation_tf(quick):
    rows = E.ablation_tf_format_conversion(
        n_subjects=2 if quick else 4,
        profile=QUICK_NEURO if quick else None,
    )
    print_table(rows, title="Ablation: TF format conversions (Section 6)")


def _run_ablation_tuning(quick):
    rows = E.ablation_spark_self_tuning(
        profile={"scale": 20, "n_volumes": 48} if quick else None,
        n_nodes=8 if quick else 16,
    )
    print_table(rows, title="Ablation: Spark default vs tuned partitions")


EXPERIMENTS = {
    "table1": _run_table1,
    "fig10a": _run_fig10a,
    "fig10b": _run_fig10b,
    "fig10c": _run_fig10c,
    "fig10d": _run_fig10d,
    "fig10e": _run_fig10e,
    "fig10f": _run_fig10f,
    "fig10g": _run_fig10g,
    "fig10h": _run_fig10h,
    "fig11": _run_fig11,
    "fig12a": _run_fig12a,
    "fig12b": _run_fig12b,
    "fig12c": _run_fig12c,
    "fig12d": _run_fig12d,
    "fig13": _run_fig13,
    "fig14": _run_fig14,
    "fig15": _run_fig15,
    "f16": _run_f16,
    "opt": _run_opt,
    "s531": _run_s531,
    "s533": _run_s533,
    "ablation": _run_ablation,
    "ablation-tf": _run_ablation_tf,
    "ablation-tuning": _run_ablation_tuning,
}


def _trace_main(argv):
    """``python -m repro.harness trace <experiment>`` entry point."""
    import contextlib

    from repro.obs import (
        ClusterMetrics,
        compute_critical_path,
        format_critical_path,
        run_snapshot,
        write_chrome_trace,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness trace",
        description="Run one experiment under the observability layer;"
        " print its time/bytes breakdown and export a Chrome trace.",
    )
    parser.add_argument(
        "experiment",
        help="'neuro' or 'astro' for one end-to-end run, or any"
        " experiment id from --list (the last cluster it builds is"
        " traced)",
    )
    parser.add_argument("--engine", default="spark",
                        choices=("spark", "myria", "dask"),
                        help="engine for neuro/astro end-to-end runs")
    parser.add_argument("--nodes", type=int, default=DEFAULT_NODES,
                        help="cluster size for neuro/astro runs")
    parser.add_argument("--subjects", type=int, default=2,
                        help="neuro dataset size")
    parser.add_argument("--visits", type=int, default=4,
                        help="astro dataset size")
    parser.add_argument("--quick", action="store_true",
                        help="miniature dataset profile")
    parser.add_argument("--out", default=None,
                        help="trace JSON path (default <experiment>-trace.json)")
    parser.add_argument("--critical-path", action="store_true",
                        help="print the critical-path blame report and"
                        " highlight the path with flow arrows in the trace")
    parser.add_argument("--by-op", action="store_true",
                        help="fold critical-path blame up to logical plan"
                        " ops and print the per-op attribution table")
    parser.add_argument("--json", action="store_true",
                        help="emit the run snapshot (the ledger serializer)"
                        " as JSON on stdout; human output moves to stderr")
    args = parser.parse_args(argv)

    captured = []

    def observer(cluster):
        captured.append((cluster, ClusterMetrics.attach(cluster)))

    # With --json, stdout carries only the snapshot document.
    human_out = sys.stderr if args.json else sys.stdout
    with observe_clusters(observer), contextlib.redirect_stdout(human_out):
        if args.experiment == "neuro":
            subjects = neuro_subjects(
                args.subjects, **(QUICK_NEURO if args.quick else {})
            )
            seconds = E.run_neuro_end_to_end(
                args.engine, subjects, n_nodes=args.nodes
            )
            print(f"{args.engine} neuro end-to-end over {args.nodes} nodes:"
                  f" {seconds:.1f} simulated s\n")
        elif args.experiment == "astro":
            visits = astro_visits(
                args.visits, **(QUICK_ASTRO if args.quick else {})
            )
            seconds = E.run_astro_end_to_end(
                args.engine, visits, n_nodes=args.nodes
            )
            print(f"{args.engine} astro end-to-end over {args.nodes} nodes:"
                  f" {seconds:.1f} simulated s\n")
        elif args.experiment in EXPERIMENTS:
            EXPERIMENTS[args.experiment](args.quick)
            print()
        else:
            parser.error(
                f"unknown experiment {args.experiment!r}; expected 'neuro',"
                " 'astro', or an id from --list"
            )
    if not captured:
        parser.error(
            f"experiment {args.experiment!r} built no cluster to trace"
        )
    cluster, metrics = captured[-1]
    path = compute_critical_path(cluster) if (
        args.critical_path or args.by_op or args.json
    ) else None
    print_breakdown(
        cluster, metrics=metrics,
        out=lambda text: print(text, file=human_out),
    )
    if args.critical_path:
        print("\n" + format_critical_path(path), file=human_out)
    if args.by_op:
        from repro.obs.attribution import (
            attribute_critical_path,
            format_attribution,
        )

        rows = attribute_critical_path(cluster, path=path)
        print("\n" + format_attribution(rows), file=human_out)
    out_path = args.out or f"{args.experiment}-trace.json"
    write_chrome_trace(cluster, out_path, metrics=metrics,
                       critical_path=path if args.critical_path else None)
    print(f"\nwrote Chrome trace to {out_path}"
          " (load in chrome://tracing or ui.perfetto.dev)", file=human_out)
    if args.json:
        snapshot = run_snapshot(cluster, label=args.experiment,
                                critical_path=path)
        print(json.dumps(snapshot, indent=1, sort_keys=True))
    return 0


def build_experiment_snapshot(name, quick=True):
    """Run one experiment id and snapshot every cluster it builds.

    Grid experiments report their runs through the trial executor's
    snapshot sink (so they work at ``--jobs N`` and from the cache,
    where the parent never holds the cluster objects); experiments not
    yet routed through :func:`repro.harness.parallel.run_grid` fall
    back to observing the clusters directly.
    """
    from repro.obs import run_snapshot
    from repro.obs.breakdown import records_of, summarize_records
    from repro.obs.ledger import experiment_snapshot

    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; use --list to see choices"
        )
    clusters = []
    with observe_clusters(clusters.append), \
            collecting_snapshots() as collected:
        EXPERIMENTS[name](quick)
    if collected.snapshots:
        runs = []
        for index, snapshot in enumerate(collected.snapshots):
            snapshot = dict(snapshot)
            snapshot["label"] = f"{index:02d}-{snapshot['label']}"
            runs.append(snapshot)
    else:
        runs = []
        for index, cluster in enumerate(clusters):
            groups = summarize_records(records_of(cluster))
            top_group = groups[0]["group"] if groups else "empty"
            runs.append(
                run_snapshot(cluster, label=f"{index:02d}-{top_group}")
            )
    scale = {
        "quick": bool(quick),
        "neuro_profile": QUICK_NEURO if quick else None,
        "astro_profile": QUICK_ASTRO if quick else None,
    }
    return experiment_snapshot(name, runs, quick=quick, scale=scale)


def _optimize_main(argv):
    """``python -m repro.harness optimize`` entry point.

    Explains the query compiler: per-(pipeline, engine) rule firing
    traces with estimated savings, the cost table behind the router's
    decision, and — with ``--check`` — an executed naive-vs-optimized
    comparison of every cell that gates on the two invariants
    (non-increasing makespan, byte-identical results).
    """
    from repro.plan import astro_plan, choose_engine, neuro_plan, optimize_for
    from repro.plan import route as R

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness optimize",
        description="Explain the rewrite-rule optimizer and the"
        " cost-based engine router; optionally verify both invariants"
        " by running every cell naive and optimized.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="miniature dataset profiles")
    parser.add_argument("--subjects", type=int, default=None,
                        help="neuro workload size (default 2 quick / 4)")
    parser.add_argument("--visits", type=int, default=None,
                        help="astro workload size (default 2 quick / 4)")
    parser.add_argument("--nodes", type=int, default=DEFAULT_NODES,
                        help="cluster size the estimates assume")
    parser.add_argument("--engines", default="dask,myria,spark",
                        help="comma-separated engines to trace/check")
    parser.add_argument("--check", action="store_true",
                        help="execute every (pipeline, engine) cell naive"
                        " and optimized; non-zero exit on a makespan"
                        " regression or a result byte-diff")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for --check trials")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed trial cache")
    args = parser.parse_args(argv)

    n_subjects = args.subjects or (2 if args.quick else 4)
    n_visits = args.visits or (2 if args.quick else 4)
    engines = tuple(e.strip() for e in args.engines.split(",") if e.strip())
    subjects = neuro_subjects(n_subjects,
                              **(QUICK_NEURO if args.quick else {}))
    visits = astro_visits(n_visits, **(QUICK_ASTRO if args.quick else {}))
    workloads = (
        ("neuro", neuro_plan(), R.neuro_profile(subjects)),
        ("astro", astro_plan(), R.astro_profile(visits)),
    )

    print("Rule firing trace (per-engine calibrated cost guards)")
    for pipeline, plan, prof in workloads:
        for engine in engines:
            result = optimize_for(plan, engine, profile=prof)
            naive_est = R.estimate_plan_cost(
                plan, engine, profile=prof, n_nodes=args.nodes
            ).total
            opt_est = R.estimate_plan_cost(
                result.plan, engine, profile=prof, n_nodes=args.nodes
            ).total
            print(f"  {pipeline}/{engine}: estimated {naive_est:.1f}s"
                  f" -> {opt_est:.1f}s, {len(result.firings)} rewrite(s)"
                  f" in {result.passes} pass(es)"
                  f" [fingerprint {result.fingerprint()[:12]}]")
            for firing in result.firings:
                saving = (f", est. -{firing.saving:.3f}s"
                          if firing.saving is not None else "")
                print(f"    pass {firing.pass_no} {firing.rule}:"
                      f" {firing.detail}{saving}")
            if not result.firings:
                print("    (no rewrites accepted: every candidate was"
                      " cost-neutral or worse on this engine)")

    print("\nRouter decisions (Table-1 constraints + cheapest estimate)")
    for pipeline, plan, prof in workloads:
        decision = choose_engine(plan, prof, n_nodes=args.nodes)
        print_table(
            [dict({"pipeline": pipeline}, **row)
             for row in decision.as_rows()],
            title=f"{pipeline}: routed to {decision.engine}",
        )

    if not args.check:
        return 0

    from repro.obs import format_opt_comparison
    from repro.obs.ledger import experiment_snapshot

    cache = None if args.no_cache else TrialCache()
    with configured(jobs=args.jobs, cache=cache), \
            collecting_snapshots() as collected:
        rows = E.opt_comparison(
            n_subjects=n_subjects, n_visits=n_visits, n_nodes=args.nodes,
            neuro_profile=QUICK_NEURO if args.quick else None,
            astro_profile=QUICK_ASTRO if args.quick else None,
            engines=engines,
        )
    print()
    print_table(rows, title="Executed naive vs optimized (simulated s)")
    runs = [dict(s, label=f"{i:02d}-{s['label']}")
            for i, s in enumerate(collected.snapshots)]
    print()
    print(format_opt_comparison(experiment_snapshot("opt", runs)))
    failures = _opt_failures(rows)
    for failure in failures:
        print(f"optimize check: {failure}", file=sys.stderr)
    if not failures:
        print("\noptimize check: all cells non-increasing and"
              " byte-identical")
    return 1 if failures else 0


def _ledger_main(argv):
    """``python -m repro.harness ledger <experiment...>`` entry point."""
    import contextlib
    import os

    from repro.obs.ledger import write_snapshot

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness ledger",
        description="Run experiments and write versioned ledger snapshots"
        " (makespan, blame, bytes, memory) for regression tracking.",
    )
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (see --list), or 'all'")
    parser.add_argument("--figure", action="append", dest="figures",
                        default=[], metavar="ID",
                        help="experiment id to run (repeatable; alias for"
                        " the positional form)")
    parser.add_argument("--quick", action="store_true",
                        help="miniature datasets (the checked-in baselines"
                        " use this)")
    parser.add_argument("--optimize", action="store_true",
                        help="also run the naive-vs-optimized comparison"
                        " ('opt' snapshot) and fail on a makespan"
                        " regression or a result byte-diff")
    parser.add_argument("--out-dir", default="benchmarks/ledger",
                        help="directory snapshots are written into")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent trials"
                        " (results are byte-identical to --jobs 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed trial cache")
    args = parser.parse_args(argv)

    requested = list(args.experiments) + list(args.figures)
    if not requested and args.optimize:
        requested = ["opt"]
    if not requested:
        parser.error("no experiments given (positional ids or --figure)")
    names = list(EXPERIMENTS) if requested == ["all"] else requested
    if args.optimize and "opt" not in names:
        names.append("opt")
    for name in names:
        if name not in EXPERIMENTS:
            parser.error(
                f"unknown experiment {name!r}; use --list to see choices"
            )
    os.makedirs(args.out_dir, exist_ok=True)
    cache = None if args.no_cache else TrialCache()
    failures = []
    with configured(jobs=args.jobs, cache=cache):
        for name in names:
            with contextlib.redirect_stdout(sys.stderr):
                snapshot = build_experiment_snapshot(name, quick=args.quick)
            suffix = "-quick" if args.quick else ""
            path = os.path.join(args.out_dir, f"{name}{suffix}.json")
            write_snapshot(snapshot, path)
            print(
                f"wrote {path} (makespan {snapshot['total_makespan_s']:.1f}s,"
                f" {len(snapshot['runs'])} run(s))"
            )
            if name == "opt" and args.optimize:
                from repro.obs import format_opt_comparison

                print(format_opt_comparison(snapshot))
                # Replays from the trial cache the figure just filled;
                # the rows carry the per-cell digests the byte-identity
                # gate needs (snapshots only record makespans).
                with contextlib.redirect_stdout(sys.stderr):
                    rows = E.opt_comparison(
                        n_subjects=2 if args.quick else 4,
                        n_visits=2 if args.quick else 4,
                        neuro_profile=QUICK_NEURO if args.quick else None,
                        astro_profile=QUICK_ASTRO if args.quick else None,
                    )
                failures.extend(_opt_failures(rows))
    if cache is not None and (cache.hits or cache.misses):
        print(f"trial cache: {cache.hits} hit(s), {cache.misses} miss(es)",
              file=sys.stderr)
    for failure in failures:
        print(f"ledger --optimize: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _compare_main(argv):
    """``python -m repro.harness compare`` entry point.

    Exit codes: 0 comparable and no regression, 1 regression past the
    tolerance, 2 the two documents cannot be compared at all (mismatched
    schema versions, or one is a ledger snapshot and the other a bench
    report) -- with a diagnostic instead of a traceback.
    """
    from repro.obs.ledger import (
        DEFAULT_TOLERANCE,
        LedgerSchemaError,
        compare_snapshots,
        format_compare,
        load_snapshot,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness compare",
        description="Diff two ledger snapshots; non-zero exit when the"
        " candidate's makespan regressed past the tolerance.",
    )
    parser.add_argument("baseline", help="baseline snapshot JSON path")
    parser.add_argument("candidate", help="candidate snapshot JSON path")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="relative regression tolerance"
                        f" (default {DEFAULT_TOLERANCE})")
    parser.add_argument("--json", action="store_true",
                        help="emit the comparison report as JSON")
    args = parser.parse_args(argv)

    try:
        with open(args.baseline) as fh:
            raw_baseline = json.load(fh)
        with open(args.candidate) as fh:
            raw_candidate = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    is_bench = [
        "bench_schema_version" in raw_baseline,
        "bench_schema_version" in raw_candidate,
    ]
    if any(is_bench) and not all(is_bench):
        bench_path = args.baseline if is_bench[0] else args.candidate
        ledger_path = args.candidate if is_bench[0] else args.baseline
        print(
            f"cannot compare: {bench_path} is a harness bench report"
            f" while {ledger_path} is a ledger snapshot;"
            " compare bench against bench (harness bench) or ledger"
            " against ledger (harness ledger)",
            file=sys.stderr,
        )
        return 2
    if all(is_bench):
        return _compare_bench(
            raw_baseline, raw_candidate,
            paths=(args.baseline, args.candidate), as_json=args.json,
        )

    try:
        baseline = load_snapshot(args.baseline)
        candidate = load_snapshot(args.candidate)
    except LedgerSchemaError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    report = compare_snapshots(baseline, candidate, tolerance=args.tolerance)
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(format_compare(report))
    return 1 if report["makespan"]["regression"] else 0


def _warm_hits(figure_row):
    """Warm-run cache hits of a bench figure row (``None`` for a figure
    only the other file has)."""
    return figure_row.get("warm_cache", {}).get("hits")


def _compare_bench(baseline, candidate, paths=("baseline", "candidate"),
                   as_json=False):
    """Diff two ``BENCH_harness.json`` files (report-only: wall-clock
    depends on the machine, so bench deltas never fail the build).

    Mismatched layouts -- different ``bench_schema_version``, or phase
    decompositions present on only one side -- exit 2 with a diagnostic
    rather than comparing apples to oranges.
    """
    b_version = baseline.get("bench_schema_version")
    c_version = candidate.get("bench_schema_version")
    if b_version != c_version:
        print(
            f"cannot compare: {paths[0]} has bench_schema_version"
            f" {b_version!r} but {paths[1]} has {c_version!r};"
            " regenerate both with the same build"
            " (PYTHONPATH=src python -m repro.harness bench)",
            file=sys.stderr,
        )
        return 2
    has_phases = [
        any("phases" in row for row in doc.get("figures", {}).values())
        for doc in (baseline, candidate)
    ]
    if any(has_phases) and not all(has_phases):
        with_p = paths[0] if has_phases[0] else paths[1]
        without_p = paths[1] if has_phases[0] else paths[0]
        print(
            f"cannot compare: {with_p} carries a --phases wall-clock"
            f" decomposition but {without_p} does not;"
            " rerun both with (or both without) --phases",
            file=sys.stderr,
        )
        return 2
    figures = sorted(
        set(baseline.get("figures", {})) | set(candidate.get("figures", {}))
    )
    rows = []
    for name in figures:
        b = baseline.get("figures", {}).get(name, {})
        c = candidate.get("figures", {}).get(name, {})
        row = {"figure": name}
        for key in ("serial_s", "parallel_s", "warm_s"):
            b_v, c_v = b.get(key), c.get(key)
            row[f"baseline_{key}"] = b_v
            row[f"candidate_{key}"] = c_v
            if b_v and c_v:
                row[f"{key}_ratio"] = round(c_v / b_v, 3)
        row["baseline_cache_hits"] = _warm_hits(b)
        row["candidate_cache_hits"] = _warm_hits(c)
        rows.append(row)
    report = {
        "bench_compare": True,
        "baseline_jobs": baseline.get("jobs"),
        "candidate_jobs": candidate.get("jobs"),
        "figures": rows,
    }
    if as_json:
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0
    print("Harness bench comparison (wall-clock; report only)")
    for row in rows:
        parts = [row["figure"]]
        for key in ("serial_s", "parallel_s", "warm_s"):
            b_v = row.get(f"baseline_{key}")
            c_v = row.get(f"candidate_{key}")
            if b_v is not None and c_v is not None:
                ratio = row.get(f"{key}_ratio")
                parts.append(
                    f"{key} {b_v:.2f}s -> {c_v:.2f}s"
                    + (f" (x{ratio:.2f})" if ratio else "")
                )
        print("  " + "; ".join(parts))
    return 0


#: Figures the self-benchmark times by default: the two end-to-end
#: grids the CI parallel job replays plus the per-step figure.
BENCH_FIGURES = ("fig10c", "fig11", "fig12c")

#: ``BENCH_harness.json`` layout version; ``compare`` refuses two files
#: whose versions differ.
BENCH_SCHEMA_VERSION = 4


def _timed_run(run, quick, label, phases=False, log_path=None):
    """Time one figure run; returns ``(wall_s, phase_report, canon)``.

    Every run executes under a :func:`collecting_snapshots` sink and
    ``canon`` is the canonical JSON of the snapshots it produced, so
    the bench can assert serial/parallel/warm byte-identity and every
    leg pays the same snapshot-extraction work.

    With ``phases`` the run additionally executes under an active
    telemetry recorder whose top-level ``other`` phase wraps the whole
    figure, so the executor's phases (cache-lookup, pool-startup,
    dispatch, row-assemble, cache-store, result-merge) plus the
    ``other`` residue tile the measured wall time by construction.
    """
    import time

    if not phases:
        with collecting_snapshots() as sink:
            start = time.perf_counter()
            run(quick)
            wall = time.perf_counter() - start
        return wall, None, json.dumps(sink.snapshots, sort_keys=True)
    from repro.obs import telemetry

    with telemetry.recording(log_path=log_path) as rec:
        rec.event("bench-run", label=label)
        with collecting_snapshots() as sink:
            start = time.perf_counter()
            with rec.phase("other", run=label):
                run(quick)
                # Close the bracket before the phase's exit bookkeeping
                # (its own log write is telemetry overhead, not figure
                # wall time).
                wall = time.perf_counter() - start
        report = telemetry.phase_report(rec.phase_totals(), wall)
        report["metrics"] = rec.metrics.snapshot()
    return wall, report, json.dumps(sink.snapshots, sort_keys=True)


def _bench_main(argv):
    """``python -m repro.harness bench`` entry point.

    For each figure: one serial uncached run, one parallel cold-cache
    run, one parallel warm-cache run.  Writes wall-clock seconds and
    per-phase cache counters to ``BENCH_harness.json`` -- the harness's
    own perf trajectory, the way ``benchmarks/ledger/`` tracks the
    simulated clusters'.  Every leg runs under a snapshot sink so all
    three do identical work, and the figure row records whether their
    snapshots were byte-identical.  A ``host`` block records the core
    count, the BLAS/OpenMP thread settings and the python and numpy
    versions the seconds were measured under.  ``--phases`` additionally
    decomposes each run's wall clock into executor phases and appends
    the structured telemetry log; ``--gate`` turns a sub-1.0 speedup or
    a snapshot mismatch into a non-zero exit (the CI parallel-harness
    job runs this).
    """
    import contextlib
    import os
    import platform
    import shutil
    import tempfile

    import numpy

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness bench",
        description="Self-benchmark the harness: serial vs parallel vs"
        " warm-cache wall-clock per figure.",
    )
    parser.add_argument("figures", nargs="*", default=None,
                        help=f"figures to time (default {' '.join(BENCH_FIGURES)})")
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="worker processes for the parallel runs")
    parser.add_argument("--full", action="store_true",
                        help="benchmark at the full dataset profile"
                        " (default: --quick profiles)")
    parser.add_argument("--out", default="BENCH_harness.json",
                        help="output path (default BENCH_harness.json)")
    parser.add_argument("--phases", action="store_true",
                        help="record the wall-clock phase decomposition"
                        " of every run (cache-lookup, pool-startup,"
                        " dispatch, row-assemble, cache-store,"
                        " result-merge, other)")
    parser.add_argument("--telemetry-log", default="BENCH_telemetry.jsonl",
                        help="JSON-lines telemetry log written under"
                        " --phases (default BENCH_telemetry.jsonl)")
    parser.add_argument("--gate", action="store_true",
                        help="exit non-zero if any figure's parallel"
                        " speedup falls below 1.0 or its serial/"
                        "parallel/warm snapshots are not byte-identical")
    args = parser.parse_args(argv)

    names = args.figures or list(BENCH_FIGURES)
    for name in names:
        if name not in EXPERIMENTS:
            parser.error(
                f"unknown experiment {name!r}; use --list to see choices"
            )
    quick = not args.full
    log_path = args.telemetry_log if args.phases else None
    if log_path:
        # The recorder appends (one recording per run); start clean.
        with open(log_path, "w"):
            pass
    from repro.harness import parallel as parallel_mod

    results = {}
    gate_failures = []
    with open(os.devnull, "w") as devnull:
        for name in names:
            run = EXPERIMENTS[name]
            cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
            try:
                with contextlib.redirect_stdout(devnull):
                    with configured(jobs=1, cache=None):
                        serial_s, serial_phases, serial_canon = _timed_run(
                            run, quick, f"{name}/serial",
                            phases=args.phases, log_path=log_path,
                        )

                    cold = TrialCache(cache_dir)
                    parallel_mod.last_chunk_size = None
                    with configured(jobs=args.jobs, cache=cold):
                        parallel_s, parallel_phases, cold_canon = _timed_run(
                            run, quick, f"{name}/parallel",
                            phases=args.phases, log_path=log_path,
                        )
                    chunk_size = parallel_mod.last_chunk_size

                    warm = TrialCache(cache_dir)
                    with configured(jobs=args.jobs, cache=warm):
                        warm_s, warm_phases, warm_canon = _timed_run(
                            run, quick, f"{name}/warm",
                            phases=args.phases, log_path=log_path,
                        )
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            identical = serial_canon == cold_canon == warm_canon
            results[name] = {
                "serial_s": round(serial_s, 3),
                "parallel_s": round(parallel_s, 3),
                "warm_s": round(warm_s, 3),
                "jobs": args.jobs,
                "cold_cache": cold.stats(),
                "warm_cache": warm.stats(),
                "chunk_size": chunk_size,
                "snapshots_identical": identical,
                "speedup": round(serial_s / parallel_s, 2)
                if parallel_s else None,
                "warm_over_cold": round(warm_s / parallel_s, 3)
                if parallel_s else None,
            }
            if args.phases:
                results[name]["phases"] = {
                    "serial": serial_phases,
                    "parallel": parallel_phases,
                    "warm": warm_phases,
                }
            row = results[name]
            print(f"{name}: serial {row['serial_s']:.2f}s,"
                  f" parallel(x{args.jobs}) {row['parallel_s']:.2f}s"
                  f" (speedup {row['speedup']}),"
                  f" warm cache {row['warm_s']:.2f}s"
                  f" ({row['warm_cache']['hits']} hit(s))")
            if args.phases:
                decomposition = parallel_phases["phases"]
                parts = ", ".join(
                    f"{phase} {data['self_s']:.2f}s"
                    for phase, data in sorted(
                        decomposition.items(),
                        key=lambda item: -item[1]["self_s"],
                    )
                )
                print(f"  parallel phases ({parallel_phases['coverage']:.0%}"
                      f" of wall): {parts}")
            if not identical:
                gate_failures.append(
                    f"{name}: serial/parallel/warm snapshots differ"
                )
            if row["speedup"] is not None and row["speedup"] < 1.0:
                gate_failures.append(
                    f"{name}: parallel speedup {row['speedup']} < 1.0"
                )
    document = {
        "bench_schema_version": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "jobs": args.jobs,
        # What the seconds below were measured on; ``compare`` ignores it.
        "host": {
            "cpu_count": os.cpu_count(),
            "thread_env": {
                name: os.environ.get(name)
                for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                             "MKL_NUM_THREADS")
            },
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "figures": results,
    }
    with open(args.out, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if log_path:
        print(f"wrote telemetry log to {log_path}")
    if args.gate and gate_failures:
        for failure in gate_failures:
            print(f"bench gate: {failure}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "optimize":
        return _optimize_main(argv[1:])
    if argv and argv[0] == "ledger":
        return _ledger_main(argv[1:])
    if argv and argv[0] == "compare":
        return _compare_main(argv[1:])
    if argv and argv[0] == "bench":
        return _bench_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate tables/figures from the paper's evaluation.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (see --list), or 'all'",
    )
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    parser.add_argument("--quick", action="store_true",
                        help="miniature datasets (seconds instead of minutes)")
    parser.add_argument("--optimize", action="store_true",
                        help="run plans through the rewrite-rule optimizer"
                        " before lowering (figures with end-to-end plans:"
                        " fig10c, fig10d; results stay byte-identical and"
                        " cache entries are separately keyed)")
    parser.add_argument("--route", choices=("auto",), default=None,
                        help="'auto' resolves each end-to-end cell's engine"
                        " through the cost-based router instead of the"
                        " figure's fixed engine list")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for independent trials"
                        " (results are byte-identical to --jobs 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed trial cache")
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    for name in names:
        if name not in EXPERIMENTS:
            parser.error(
                f"unknown experiment {name!r}; use --list to see choices"
            )
    import inspect

    cache = None if args.no_cache else TrialCache()
    with configured(jobs=args.jobs, cache=cache):
        for name in names:
            fn = EXPERIMENTS[name]
            accepted = inspect.signature(fn).parameters
            kwargs = {}
            if args.optimize and "optimize" in accepted:
                kwargs["optimize"] = True
            if args.route and "route" in accepted:
                kwargs["route"] = args.route
            if (args.optimize or args.route) and not kwargs and name != "opt":
                print(f"note: {name} has no optimizer/router variant;"
                      " running unchanged", file=sys.stderr)
            fn(args.quick, **kwargs)
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
