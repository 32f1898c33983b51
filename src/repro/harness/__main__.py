"""Command-line runner: regenerate any of the paper's tables/figures.

Usage::

    python -m repro.harness --list
    python -m repro.harness table1 fig10a fig12a
    python -m repro.harness fig10c --quick --jobs 4
    python -m repro.harness all --quick
    python -m repro.harness trace neuro --engine spark --out trace.json
    python -m repro.harness fig10c --quick --optimize --route auto
    python -m repro.harness optimize --quick
    python -m repro.harness ledger --optimize --quick
    python -m repro.harness ledger fig12c --quick
    python -m repro.harness ledger --figure fig10c --jobs 4 --quick
    python -m repro.harness compare benchmarks/ledger/fig12c-quick.json new.json

Every id is one entry of ``repro.harness.figures.FIGURES``, which holds
its sizes, title and printer.  ``--quick`` swaps the benchmark dataset
profile for a miniature one, so every experiment finishes in seconds
(shapes are still indicative but noisier;
``benchmarks/test_claims.py`` checks the paper's claims at the full
profile).

``--jobs N`` fans a figure's independent trials across N worker
processes; results are byte-identical to ``--jobs 1`` (DESIGN.md
section 11).  Trials are cached content-addressed under
``.harness-cache/`` (or ``$REPRO_CACHE_DIR``, which must be writable
by this user only: entries are trusted as this program's own output)
so re-running a figure replays instantly; ``--no-cache`` disables
that, and any edit to the ``repro`` source tree (cost constants
included) invalidates every entry.  The harness's own wall clock is measured by ``bench/run.py``
(workload ``grid-pool``).

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
from repro.harness.figures import FIGURES, dataset_profiles, run_figure
from repro.harness.parallel import collecting_snapshots, configured
from repro.harness.report import print_breakdown, print_table
from repro.harness.runner import (
    DEFAULT_NODES,
    astro_visits,
    neuro_subjects,
    observe_clusters,
)
from repro.obs.optledger import MAKESPAN_EPSILON


def _opt_failures(rows):
    """Gate violations in the ``opt`` figure's naive-vs-optimized rows:
    an optimized makespan above its naive twin's, or a result digest
    that differs."""
    failures = []
    for row in rows:
        cell = f"{row['pipeline']}/{row['engine']}"
        if row["optimized_s"] > row["naive_s"] + MAKESPAN_EPSILON:
            failures.append(
                f"{cell}: optimized makespan {row['optimized_s']}s exceeds"
                f" naive {row['naive_s']}s"
            )
        if not row["identical"]:
            failures.append(
                f"{cell}: optimized results are not byte-identical to naive"
            )
    return failures


def _trace_main(argv):
    """``python -m repro.harness trace <experiment>`` entry point."""
    import contextlib

    from repro.obs import (
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
    # With --json, stdout carries only the snapshot document.
    human_out = sys.stderr if args.json else sys.stdout
    neuro_profile, astro_profile = dataset_profiles(args.quick)
    with observe_clusters(captured.append), \
            contextlib.redirect_stdout(human_out):
        if args.experiment == "neuro":
            subjects = neuro_subjects(args.subjects, **(neuro_profile or {}))
            seconds = E.run_neuro_end_to_end(
                args.engine, subjects, n_nodes=args.nodes
            )
            print(f"{args.engine} neuro end-to-end over {args.nodes} nodes:"
                  f" {seconds:.1f} simulated s\n")
        elif args.experiment == "astro":
            visits = astro_visits(args.visits, **(astro_profile or {}))
            seconds = E.run_astro_end_to_end(
                args.engine, visits, n_nodes=args.nodes
            )
            print(f"{args.engine} astro end-to-end over {args.nodes} nodes:"
                  f" {seconds:.1f} simulated s\n")
        elif args.experiment in FIGURES:
            run_figure(args.experiment, args.quick)
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
    cluster = captured[-1]
    path = compute_critical_path(cluster) if (
        args.critical_path or args.by_op or args.json
    ) else None
    print_breakdown(cluster, out=lambda text: print(text, file=human_out))
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
    write_chrome_trace(cluster, out_path,
                       critical_path=path if args.critical_path else None)
    print(f"\nwrote Chrome trace to {out_path}"
          " (load in chrome://tracing or ui.perfetto.dev)", file=human_out)
    if args.json:
        snapshot = run_snapshot(cluster, label=args.experiment,
                                critical_path=path)
        print(json.dumps(snapshot, indent=1, sort_keys=True))
    return 0


def _numbered(snapshots):
    """Run snapshots labeled ``NN-<label>`` in merge order."""
    return [dict(s, label=f"{i:02d}-{s['label']}")
            for i, s in enumerate(snapshots)]


def figure_snapshot(name, snapshots, quick=True):
    """The ledger snapshot of one run of figure ``name``, from the run
    snapshots it produced in merge order."""
    from repro.obs.ledger import experiment_snapshot

    neuro_profile, astro_profile = dataset_profiles(quick)
    scale = {
        "quick": bool(quick),
        "neuro_profile": neuro_profile,
        "astro_profile": astro_profile,
    }
    return experiment_snapshot(name, _numbered(snapshots), quick=quick,
                               scale=scale)


def build_experiment_snapshot(name, quick=True):
    """Run one experiment id; returns ``(ledger snapshot, rows)``.

    Every experiment is a grid, so its runs arrive through the trial
    executor's snapshot sink: that works at ``--jobs N`` and from the
    cache, where the parent never holds the cluster objects.  The sink
    stays empty only when the experiment builds no cluster.
    """
    if name not in FIGURES:
        raise KeyError(
            f"unknown experiment {name!r}; use --list to see choices"
        )
    with collecting_snapshots() as collected:
        rows = run_figure(name, quick)
    return figure_snapshot(name, collected.snapshots, quick), rows


def _optimize_main(argv):
    """``python -m repro.harness optimize`` entry point.

    Explains the query compiler: per-(pipeline, engine) fusion firing
    traces with estimated savings, and the cost table behind the
    router's decision.  The executed naive-vs-optimized gate is
    ``ledger --optimize``.
    """
    from repro.plan import astro_plan, choose_engine, neuro_plan, optimize_for
    from repro.plan import route as R

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness optimize",
        description="Explain the fusion optimizer and the cost-based"
        " engine router.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="miniature dataset profiles")
    parser.add_argument("--subjects", type=int, default=None,
                        help="neuro workload size (default: the 'opt'"
                        " figure's)")
    parser.add_argument("--visits", type=int, default=None,
                        help="astro workload size (default: the 'opt'"
                        " figure's)")
    parser.add_argument("--nodes", type=int, default=DEFAULT_NODES,
                        help="cluster size the rewrites and estimates assume")
    parser.add_argument("--engines", default="dask,myria,spark",
                        help="comma-separated engines to trace")
    args = parser.parse_args(argv)

    sizes = FIGURES["opt"].sizes(args.quick)
    profiles = sizes["profiles"]
    engines = tuple(e.strip() for e in args.engines.split(",") if e.strip())
    subjects = neuro_subjects(args.subjects or sizes["count"],
                              **profiles["neuro"])
    visits = astro_visits(args.visits or sizes["count"], **profiles["astro"])
    workloads = (
        ("neuro", neuro_plan(), R.neuro_profile(subjects)),
        ("astro", astro_plan(), R.astro_profile(visits)),
    )

    print("Rule firing trace (per-engine calibrated cost guards)")
    for pipeline, plan, prof in workloads:
        for engine in engines:
            result = optimize_for(plan, engine, profile=prof,
                                  n_nodes=args.nodes)
            naive_est = R.estimate_plan_cost(
                plan, engine, profile=prof, n_nodes=args.nodes
            ).total
            opt_est = R.estimate_plan_cost(
                result.plan, engine, profile=prof, n_nodes=args.nodes
            ).total
            print(f"  {pipeline}/{engine}: estimated {naive_est:.1f}s"
                  f" -> {opt_est:.1f}s, {len(result.firings)} rewrite(s)"
                  f" [fingerprint {result.fingerprint()[:12]}]")
            for firing in result.firings:
                print(f"    {firing.detail}, est. -{firing.saving:.3f}s")
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
    return 0


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
    names = list(FIGURES) if requested == ["all"] else requested
    if args.optimize and "opt" not in names:
        names.append("opt")
    for name in names:
        if name not in FIGURES:
            parser.error(
                f"unknown experiment {name!r}; use --list to see choices"
            )
    os.makedirs(args.out_dir, exist_ok=True)
    cache = None if args.no_cache else TrialCache()
    failures = []
    with configured(jobs=args.jobs, cache=cache):
        for name in names:
            with contextlib.redirect_stdout(sys.stderr):
                snapshot, rows = build_experiment_snapshot(
                    name, quick=args.quick
                )
            suffix = "-quick" if snapshot["quick"] else ""
            path = os.path.join(args.out_dir, f"{name}{suffix}.json")
            write_snapshot(snapshot, path)
            print(
                f"wrote {path} (makespan {snapshot['total_makespan_s']:.1f}s,"
                f" {len(snapshot['runs'])} run(s))"
            )
            if name == "opt" and args.optimize:
                from repro.obs import format_opt_comparison

                print(format_opt_comparison(snapshot))
                # The rows carry the per-cell digests the byte-identity
                # gate needs (snapshots only record makespans).
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
    tolerance, 2 a document is not a ledger snapshot of this build's
    schema version -- with a diagnostic instead of a traceback.
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
                        help="run plans through the fusion optimizer"
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
        for name in FIGURES:
            print(name)
        return 0

    names = list(FIGURES) if args.experiments == ["all"] else args.experiments
    for name in names:
        if name not in FIGURES:
            parser.error(
                f"unknown experiment {name!r}; use --list to see choices"
            )
    variant = {"optimize": args.optimize, "route": args.route}
    cache = None if args.no_cache else TrialCache()
    with configured(jobs=args.jobs, cache=cache):
        for name in names:
            if FIGURES[name].variants:
                run_figure(name, args.quick, **variant)
            else:
                if (args.optimize or args.route) and name != "opt":
                    print(f"note: {name} has no optimizer/router variant;"
                          " running unchanged", file=sys.stderr)
                run_figure(name, args.quick)
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
