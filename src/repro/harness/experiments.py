"""One experiment per table/figure of the paper's evaluation.

Every function returns a list of row dicts (one per plotted point /
table cell) with a ``simulated_s`` field holding seconds on the virtual
cluster clock.  Sizes are required keywords with no default: a
figure's sizes are written once, in :mod:`repro.harness.figures`.  See
DESIGN.md section 5 for the experiment index and EXPERIMENTS.md for the
paper-vs-measured comparison.
"""

from collections import namedtuple
from functools import partial

import numpy as np

from repro.cluster.errors import OutOfMemoryError
from repro.data.catalog import astro_size_table, neuro_size_table
from repro.harness.parallel import TrialSpec, grid_rows, trial
from repro.harness.runner import (
    ASTRO_BENCH,
    DEFAULT_NODES,
    NEURO_BENCH,
    Stopwatch,
    astro_visits,
    fresh_engine,
    neuro_subjects,
)
from repro.pipelines.astro.staging import stage_visits
from repro.pipelines.neuro.reference import reference_masks
from repro.pipelines.neuro.staging import stage_subjects
from repro.plan import (
    PSEUDO_RECOVERY,
    astro_plan,
    choose_engine,
    fragments,
    lower,
    neuro_plan,
    optimize_for,
    route,
)

# ----------------------------------------------------------------------
# Table 1 and Figures 10a / 10b: LoC accounting and data-size tables
# (registered as trials so they run under the parallel executor and
# content-addressed cache like every other experiment; they build no
# clusters, so their payloads carry no snapshots)
# ----------------------------------------------------------------------

@trial("table1")
def _trial_table1(use_case):
    from repro.harness.loc import table1_rows

    return {"rows": table1_rows(use_case)}


def table1(use_cases=("neuro", "astro")):
    """Table 1 LoC rows, keyed by use case."""
    payloads = grid_rows(
        TrialSpec("table1", {"use_case": use_case})
        for use_case in use_cases
    )
    return {uc: p["rows"] for uc, p in zip(use_cases, payloads)}


@trial("fig10a")
def _trial_fig10a_sizes():
    return {"rows": neuro_size_table()}


@trial("fig10b")
def _trial_fig10b_sizes():
    return {"rows": astro_size_table()}


def fig10a_sizes():
    """Fig10a sizes."""
    return grid_rows([TrialSpec("fig10a", {})])[0]["rows"]


def fig10b_sizes():
    """Fig10b sizes."""
    return grid_rows([TrialSpec("fig10b", {})])[0]["rows"]


# ----------------------------------------------------------------------
# End-to-end runners (shared by Figures 10c-10h, 13, 14, §5.3.3)
# ----------------------------------------------------------------------

#: What differs between the two workloads in an end-to-end trial:
#: cohort generator, stage function, plan builder and the tuning keys
#: that are really plan parameters, router profile, and the tuning
#: defaults of the paper's tuned Spark runs beyond one partition per
#: slot (Section 5.3.3: the neuro input RDD is cached).
Pipeline = namedtuple(
    "Pipeline", "cohort stage plan plan_keys profile spark_defaults"
)
PIPELINES = {
    "neuro": Pipeline(neuro_subjects, stage_subjects, neuro_plan,
                      ("n_blocks", "bucket"), route.neuro_profile,
                      {"cache_input": True}),
    "astro": Pipeline(astro_visits, stage_visits, astro_plan,
                      ("bucket",), route.astro_profile, {}),
}


def _end_to_end(pipeline, kind, data, n_nodes=DEFAULT_NODES, optimize=False,
                run_label=None, **tuning):
    """One end-to-end trial; returns ``(seconds, results, opt)``.

    Starts "with data stored in Amazon S3", executes all steps, and
    materializes output in worker memory (Section 5.1); staging time is
    excluded (data was staged ahead of the experiment).  ``optimize``
    routes the plan through :func:`repro.plan.optimize_for`, priced for
    the engine at ``n_nodes``, before lowering (``opt`` is the
    :class:`~repro.plan.opt.OptimizationResult`, or ``None`` on the
    naive path).  ``kind == "auto"`` resolves through the cost-based
    router first.
    """
    pipe = PIPELINES[pipeline]
    if kind == "auto":
        kind = choose_engine(
            pipe.plan(), pipe.profile(data), n_nodes=n_nodes
        ).engine
    cluster, engine = fresh_engine(
        kind, n_nodes=n_nodes, workers_per_node=tuning.pop("workers_per_node", None)
    )
    if run_label:
        cluster.run_label = run_label
    pipe.stage(cluster.object_store, data)
    watch = Stopwatch(cluster)
    if kind == "spark":
        tuning.setdefault("input_partitions", cluster.spec.total_slots)
        for key, value in pipe.spark_defaults.items():
            tuning.setdefault(key, value)
    elif kind == "myria":
        tuning.setdefault("source", "s3")
    elif kind != "dask":
        raise ValueError(f"no end-to-end {pipeline} runner for {kind!r}")
    plan = pipe.plan(
        **{k: tuning.pop(k) for k in pipe.plan_keys if k in tuning}
    )
    opt = None
    if optimize:
        opt = optimize_for(plan, kind, profile=pipe.profile(data),
                           n_nodes=n_nodes)
        plan = opt.plan
    results = lower(plan, kind, engine).run(data, **tuning)
    return watch.lap(), results, opt


def run_neuro_end_to_end(kind, subjects, n_nodes=DEFAULT_NODES, **tuning):
    """One tuned end-to-end neuroscience trial; returns simulated secs."""
    return _end_to_end("neuro", kind, subjects, n_nodes=n_nodes, **tuning)[0]


def run_astro_end_to_end(kind, visits, n_nodes=DEFAULT_NODES, **tuning):
    """One tuned end-to-end astronomy trial; returns simulated seconds."""
    return _end_to_end("astro", kind, visits, n_nodes=n_nodes, **tuning)[0]


# ----------------------------------------------------------------------
# Optimizer: naive-vs-optimized comparison cells
# ----------------------------------------------------------------------

def _feed_digest(digest, value):
    """Feed one result structure into a hash, arrays by content."""
    array = getattr(value, "array", None)
    if array is not None:  # SizedArray
        _feed_digest(digest, array)
        digest.update(repr(tuple(value.nominal_shape)).encode())
        return
    if isinstance(value, np.ndarray):
        digest.update(str(value.dtype).encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
        return
    if isinstance(value, dict):
        for key in sorted(value, key=repr):
            digest.update(repr(key).encode())
            _feed_digest(digest, value[key])
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            _feed_digest(digest, item)
        return
    if isinstance(value, bytes):
        digest.update(value)
        return
    digest.update(repr(value).encode())


def result_digest(value):
    """Stable content digest of a pipeline's materialized results."""
    import hashlib

    digest = hashlib.sha256()
    _feed_digest(digest, value)
    return digest.hexdigest()[:16]


def optimize_token(pipeline, kind, count, profile, n_nodes=DEFAULT_NODES):
    """Fingerprint of the optimization a cell would run under.

    This is the value carried in the trial params when ``optimize`` is
    requested, so optimized runs are content-addressed by the exact
    optimizer outcome (firings, plan shape) in the trial cache — never
    colliding with naive entries or with stale optimizer builds.
    Truthy, so trial bodies treat it as the ``optimize`` flag itself.
    """
    pipe = PIPELINES[pipeline]
    data = pipe.cohort(count, **profile)
    return optimize_for(
        pipe.plan(), kind, profile=pipe.profile(data), n_nodes=n_nodes
    ).fingerprint()


@trial("optcell")
def _trial_optcell(pipeline, kind, count, n_nodes, profile):
    """Run one (pipeline, engine) cell naive then optimized.

    Both runs execute on fresh clusters over the same staged dataset;
    the row records both makespans, whether the materialized results
    are byte-identical, and the optimizer's firing trace.  This is the
    cell the ``harness ledger --optimize`` gate asserts over:
    ``optimized_s <= naive_s`` and ``identical``.
    """
    data = PIPELINES[pipeline].cohort(count, **profile)
    naive_s, naive_out, _ = _end_to_end(
        pipeline, kind, data, n_nodes=n_nodes,
        run_label=f"{pipeline}-{kind}-naive",
    )
    opt_s, opt_out, opt = _end_to_end(
        pipeline, kind, data, n_nodes=n_nodes, optimize=True,
        run_label=f"{pipeline}-{kind}-optimized",
    )
    return {
        "pipeline": pipeline,
        "engine": kind,
        "naive_s": round(naive_s, 3),
        "optimized_s": round(opt_s, 3),
        "saved_s": round(naive_s - opt_s, 3),
        "identical": result_digest(naive_out) == result_digest(opt_out),
        "digest": result_digest(naive_out),
        "rules": "; ".join(f.detail for f in opt.firings) or "(no rewrites)",
        "fingerprint": opt.fingerprint(),
    }


def opt_comparison(*, n_subjects, n_visits, n_nodes=DEFAULT_NODES,
                   neuro_profile=None, astro_profile=None,
                   engines=("dask", "myria", "spark")):
    """Naive-vs-optimized cells for every (pipeline, engine) pair."""
    neuro_profile = neuro_profile or NEURO_BENCH
    astro_profile = astro_profile or ASTRO_BENCH
    specs = [
        TrialSpec(
            "optcell",
            {"pipeline": "neuro", "kind": kind, "count": n_subjects,
             "n_nodes": n_nodes, "profile": dict(neuro_profile)},
        )
        for kind in engines
    ] + [
        TrialSpec(
            "optcell",
            {"pipeline": "astro", "kind": kind, "count": n_visits,
             "n_nodes": n_nodes, "profile": dict(astro_profile)},
        )
        for kind in engines
    ]
    return grid_rows(specs)


# ----------------------------------------------------------------------
# Figures 10c-10f: end-to-end vs data size (+ normalized views)
# ----------------------------------------------------------------------

@trial("fig10c")
def _trial_fig10c(kind, count, n_nodes, profile, optimize=None):
    subjects = neuro_subjects(count, **profile)
    seconds, _results, _opt = _end_to_end(
        "neuro", kind, subjects, n_nodes=n_nodes, optimize=bool(optimize)
    )
    row = {"engine": kind, "subjects": count, "simulated_s": seconds}
    if optimize:
        row["optimized"] = True
    return row


def fig10c_neuro_end_to_end(*, subject_counts,
                            engines=("dask", "myria", "spark"),
                            n_nodes=DEFAULT_NODES, profile=None,
                            optimize=False):
    """Fig10c neuro end to end.

    With ``optimize`` every trial's plan passes through the optimizer
    first; the trial params then carry the optimization fingerprint, so
    optimized cells are separately keyed in the trial cache and the
    naive entries (and their snapshots) stay byte-identical.
    ``engines=("auto",)`` resolves each cell through the router.
    """
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "fig10c",
            dict(
                {"kind": kind, "count": count, "n_nodes": n_nodes,
                 "profile": dict(profile)},
                **({"optimize": optimize_token(
                    "neuro", kind, count, profile, n_nodes=n_nodes)}
                   if optimize and kind != "auto"
                   else {"optimize": True} if optimize else {}),
            ),
        )
        for count in subject_counts
        for kind in engines
    )


def fig10d_astro_end_to_end(*, visit_counts,
                            engines=("myria", "spark"),
                            n_nodes=DEFAULT_NODES, profile=None,
                            optimize=False):
    """Dask is excluded to match the paper ("the implementation freezes
    once deployed on a cluster ... we do not report performance
    numbers", Section 4.4); pass engines=(..., "dask") to include our
    working implementation anyway.  ``optimize`` and ``engines=
    ("auto",)`` behave as in :func:`fig10c_neuro_end_to_end`."""
    profile = profile or ASTRO_BENCH
    return grid_rows(
        TrialSpec(
            "fig10d",
            dict(
                {"kind": kind, "count": count, "n_nodes": n_nodes,
                 "profile": dict(profile)},
                **({"optimize": optimize_token(
                    "astro", kind, count, profile, n_nodes=n_nodes)}
                   if optimize and kind != "auto"
                   else {"optimize": True} if optimize else {}),
            ),
        )
        for count in visit_counts
        for kind in engines
    )


@trial("fig10d")
def _trial_fig10d(kind, count, n_nodes, profile, optimize=None):
    visits = astro_visits(count, **profile)
    seconds, _results, _opt = _end_to_end(
        "astro", kind, visits, n_nodes=n_nodes, optimize=bool(optimize)
    )
    row = {"engine": kind, "visits": count, "simulated_s": seconds}
    if optimize:
        row["optimized"] = True
    return row


def normalized_per_unit(rows, unit_key):
    """Figures 10e/10f: runtime per unit, normalized to the smallest
    size (the paper's "ratios of each pipeline runtime to that obtained
    for one subject")."""
    engines = sorted({r["engine"] for r in rows})
    out = []
    for engine in engines:
        engine_rows = sorted(
            (r for r in rows if r["engine"] == engine), key=lambda r: r[unit_key]
        )
        base = engine_rows[0]
        base_per_unit = base["simulated_s"] / base[unit_key]
        for row in engine_rows:
            per_unit = row["simulated_s"] / row[unit_key]
            out.append(
                {
                    "engine": engine,
                    unit_key: row[unit_key],
                    "normalized": per_unit / base_per_unit,
                }
            )
    return out


def fig10e_neuro_normalized(rows=None, **kwargs):
    """Fig10e neuro normalized."""
    rows = rows if rows is not None else fig10c_neuro_end_to_end(**kwargs)
    return normalized_per_unit(rows, "subjects")


def fig10f_astro_normalized(rows=None, **kwargs):
    """Fig10f astro normalized."""
    rows = rows if rows is not None else fig10d_astro_end_to_end(**kwargs)
    return normalized_per_unit(rows, "visits")


# ----------------------------------------------------------------------
# Figures 10g/10h: end-to-end vs cluster size
# ----------------------------------------------------------------------

@trial("fig10g")
def _trial_fig10g(kind, n_nodes, n_subjects, profile):
    subjects = neuro_subjects(n_subjects, **profile)
    return {
        "engine": kind,
        "nodes": n_nodes,
        "simulated_s": run_neuro_end_to_end(kind, subjects, n_nodes=n_nodes),
    }


def fig10g_neuro_speedup(*, node_counts, n_subjects,
                         engines=("dask", "myria", "spark"), profile=None):
    """Fig10g neuro speedup."""
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "fig10g",
            {"kind": kind, "n_nodes": n_nodes, "n_subjects": n_subjects,
             "profile": dict(profile)},
        )
        for n_nodes in node_counts
        for kind in engines
    )


@trial("fig10h")
def _trial_fig10h(kind, n_nodes, n_visits, profile):
    visits = astro_visits(n_visits, **profile)
    return {
        "engine": kind,
        "nodes": n_nodes,
        "simulated_s": run_astro_end_to_end(kind, visits, n_nodes=n_nodes),
    }


def fig10h_astro_speedup(*, node_counts, n_visits,
                         engines=("myria", "spark"), profile=None):
    """Fig10h astro speedup."""
    profile = profile or ASTRO_BENCH
    return grid_rows(
        TrialSpec(
            "fig10h",
            {"kind": kind, "n_nodes": n_nodes, "n_visits": n_visits,
             "profile": dict(profile)},
        )
        for n_nodes in node_counts
        for kind in engines
    )


# ----------------------------------------------------------------------
# Figures 11 and 12: individual steps (16 nodes)
# ----------------------------------------------------------------------

def _run_step(kind, frag, data, prepare_tuning, op_tuning, cost_model=None):
    """Time one logical op on one engine; returns simulated seconds.

    ``frag`` is the plan fragment (:mod:`repro.plan.fragments`) whose
    last op is measured.  The engine's lowering owns the protocol: an
    untimed ``prepare`` leaves everything the op reads materialized,
    then ``run_op`` runs exactly that op inside the stopwatch window.
    Tunings ride to the call they tune (SciDB's chunk size to the
    prepared ingest; its ingest method and incremental co-add to the
    measured op).  ``cost_model`` prices the cluster (default: the
    calibrated one).
    """
    cluster, engine = fresh_engine(kind, cost_model=cost_model)
    PIPELINES[frag.name].stage(cluster.object_store, data)
    op_id = fragments.measured_op(frag)
    lowered = lower(frag, kind, engine)
    lowered.prepare(op_id, data, **prepare_tuning)
    watch = Stopwatch(cluster)
    lowered.run_op(op_id, **op_tuning)
    return watch.lap()


#: Figure 11 system -> (engine, tuning of the measured scan): SciDB
#: ingests through ``from_array`` (SciDB-1) or ``aio_input`` (SciDB-2).
INGEST_SYSTEMS = {
    "spark": ("spark", {}),
    "myria": ("myria", {}),
    "dask": ("dask", {}),
    "tensorflow": ("tensorflow", {}),
    "scidb-1": ("scidb", {"method": "from_array"}),
    "scidb-2": ("scidb", {"method": "aio"}),
}


@trial("fig11")
def _trial_fig11(system, count, profile):
    kind, scan_tuning = INGEST_SYSTEMS[system]
    return {
        "system": system,
        "subjects": count,
        "simulated_s": _run_step(
            kind, fragments.neuro_scan_fragment(),
            neuro_subjects(count, **profile), {}, scan_tuning,
        ),
    }


def fig11_ingest(*, subject_counts, profile=None,
                 systems=("spark", "myria", "dask", "tensorflow",
                          "scidb-1", "scidb-2")):
    """Fig11 ingest, measured on a warm deployment."""
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "fig11",
            {"system": system, "count": count, "profile": dict(profile)},
        )
        for count in subject_counts
        for system in systems
    )


def _neuro_step_row(frag, system, n_subjects, profile):
    """One Figure 12a-c cell: ``frag``'s measured op on ``system``."""
    return {
        "system": system,
        "simulated_s": _run_step(
            system, frag, neuro_subjects(n_subjects, **profile), {}, {}
        ),
    }


@trial("fig12a")
def _trial_fig12a(system, n_subjects, profile):
    return _neuro_step_row(
        fragments.neuro_filter_fragment(), system, n_subjects, profile
    )


@trial("fig12b")
def _trial_fig12b(system, n_subjects, profile):
    return _neuro_step_row(
        fragments.neuro_mean_fragment(), system, n_subjects, profile
    )


@trial("fig12c")
def _trial_fig12c(system, n_subjects, profile):
    return _neuro_step_row(
        fragments.neuro_denoise_fragment(), system, n_subjects, profile
    )


def _neuro_step_figure(name, n_subjects, profile, systems):
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            name,
            {"system": system, "n_subjects": n_subjects,
             "profile": dict(profile)},
        )
        for system in systems
    )


_NEURO_STEP_SYSTEMS = ("dask", "myria", "spark", "scidb", "tensorflow")


def fig12a_filter(*, n_subjects, profile=None, systems=_NEURO_STEP_SYSTEMS):
    """Step: select the b0 subset of image volumes."""
    return _neuro_step_figure("fig12a", n_subjects, profile, systems)


def fig12b_mean(*, n_subjects, profile=None, systems=_NEURO_STEP_SYSTEMS):
    """Step: per-subject mean of the b0 volumes."""
    return _neuro_step_figure("fig12b", n_subjects, profile, systems)


def fig12c_denoise(*, n_subjects, profile=None,
                   systems=_NEURO_STEP_SYSTEMS):
    """Step 2-N: denoising (SciDB via stream(), TF via convolutions)."""
    return _neuro_step_figure("fig12c", n_subjects, profile, systems)


def _coadd_step(system, n_visits, profile, prepare_tuning, op_tuning):
    """Step 3-A on ``system`` over ``n_visits`` visits."""
    return _run_step(
        system, fragments.astro_coadd_fragment(),
        astro_visits(n_visits, **profile), prepare_tuning, op_tuning,
    )


@trial("fig12d")
def _trial_fig12d(system, n_visits, profile):
    return {
        "system": system,
        "simulated_s": _coadd_step(system, n_visits, profile, {}, {}),
    }


def fig12d_coadd(*, n_visits, profile=None,
                 systems=("myria", "spark", "scidb")):
    """Step 3-A: co-addition (SciDB in stock iterative AQL)."""
    profile = profile or ASTRO_BENCH
    return grid_rows(
        TrialSpec(
            "fig12d",
            {"system": system, "n_visits": n_visits,
             "profile": dict(profile)},
        )
        for system in systems
    )


# ----------------------------------------------------------------------
# Figure 13: Myria workers per node
# ----------------------------------------------------------------------

@trial("fig13")
def _trial_fig13(workers, n_subjects, n_nodes, profile):
    subjects = neuro_subjects(n_subjects, **profile)
    return {
        "workers_per_node": workers,
        "simulated_s": run_neuro_end_to_end(
            "myria", subjects, n_nodes=n_nodes, workers_per_node=workers
        ),
    }


def fig13_myria_workers(*, worker_counts, n_subjects,
                        n_nodes=DEFAULT_NODES, profile=None):
    """Fig13 myria workers."""
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "fig13",
            {"workers": workers, "n_subjects": n_subjects,
             "n_nodes": n_nodes, "profile": dict(profile)},
        )
        for workers in worker_counts
    )


# ----------------------------------------------------------------------
# Figure 14: Spark input partitions (single subject)
# ----------------------------------------------------------------------

@trial("fig14")
def _trial_fig14(partitions, n_nodes, profile):
    subjects = neuro_subjects(1, **profile)
    return {
        "partitions": partitions,
        "simulated_s": run_neuro_end_to_end(
            "spark", subjects, n_nodes=n_nodes,
            input_partitions=partitions,
            group_partitions=max(partitions, 1),
        ),
    }


def fig14_spark_partitions(*, partition_counts, n_nodes=DEFAULT_NODES,
                           profile=None):
    """Fig14 spark partitions."""
    profile = profile or {"scale": NEURO_BENCH["scale"], "n_volumes": 288}
    return grid_rows(
        TrialSpec(
            "fig14",
            {"partitions": partitions, "n_nodes": n_nodes,
             "profile": dict(profile)},
        )
        for partitions in partition_counts
    )


# ----------------------------------------------------------------------
# Figure 15: Myria memory management (astronomy)
# ----------------------------------------------------------------------

@trial("fig15")
def _trial_fig15(count, mode, n_nodes, chunks, profile):
    visits = astro_visits(count, **profile)
    cluster, engine = fresh_engine("myria", n_nodes=n_nodes)
    stage_visits(cluster.object_store, visits)
    watch = Stopwatch(cluster)
    try:
        lower(astro_plan(), "myria", engine).run(
            visits, mode=mode,
            chunks=chunks if mode == "multiquery" else 1,
            source="s3",
        )
        result = watch.lap()
    except OutOfMemoryError:
        result = "OOM"
    return {"visits": count, "mode": mode, "simulated_s": result}


def fig15_myria_memory(*, visit_counts,
                       modes=("pipelined", "materialized", "multiquery"),
                       n_nodes=DEFAULT_NODES, chunks=2, profile=None):
    """Pipelined vs materialized vs multi-query execution; cells where
    a mode runs out of memory report ``"OOM"`` (the paper's missing
    bars)."""
    profile = profile or ASTRO_BENCH
    return grid_rows(
        TrialSpec(
            "fig15",
            {"count": count, "mode": mode, "n_nodes": n_nodes,
             "chunks": chunks, "profile": dict(profile)},
        )
        for count in visit_counts
        for mode in modes
    )


# ----------------------------------------------------------------------
# Section 5.3.1: SciDB chunk-size tuning (co-addition)
# ----------------------------------------------------------------------

@trial("s531")
def _trial_s531(chunk, n_visits, profile):
    return {
        "chunk": chunk,
        "simulated_s": _coadd_step(
            "scidb", n_visits, profile, {"chunk": chunk}, {}
        ),
    }


def s531_scidb_chunks(*, chunk_sizes, n_visits, profile=None):
    """S531 scidb chunks."""
    profile = profile or ASTRO_BENCH
    return grid_rows(
        TrialSpec(
            "s531",
            {"chunk": chunk, "n_visits": n_visits, "profile": dict(profile)},
        )
        for chunk in chunk_sizes
    )


# ----------------------------------------------------------------------
# Section 5.3.3: Spark input caching
# ----------------------------------------------------------------------

@trial("s533")
def _trial_s533(count, cached, n_nodes, profile):
    subjects = neuro_subjects(count, **profile)
    return {
        "subjects": count,
        "cached": cached,
        "simulated_s": run_neuro_end_to_end(
            "spark", subjects, n_nodes=n_nodes, cache_input=cached
        ),
    }


def s533_spark_caching(*, subject_counts, n_nodes=DEFAULT_NODES,
                       profile=None):
    """S533 spark caching."""
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "s533",
            {"count": count, "cached": cached, "n_nodes": n_nodes,
             "profile": dict(profile)},
        )
        for count in subject_counts
        for cached in (False, True)
    )


# ----------------------------------------------------------------------
# Ablation: SciDB incremental iterative processing ([34], Section 5.2.4)
# ----------------------------------------------------------------------

@trial("ablation_scidb")
def _trial_ablation_scidb(incremental, n_visits, profile):
    return {
        "variant": "incremental [34]" if incremental else "stock AQL",
        "simulated_s": _coadd_step(
            "scidb", n_visits, profile, {}, {"incremental": incremental}
        ),
    }


def ablation_scidb_incremental(*, n_visits, profile=None):
    """Ablation scidb incremental."""
    profile = profile or ASTRO_BENCH
    rows = grid_rows(
        TrialSpec(
            "ablation_scidb",
            {"incremental": incremental, "n_visits": n_visits,
             "profile": dict(profile)},
        )
        for incremental in (False, True)
    )
    stock, incremental = (r["simulated_s"] for r in rows)
    return rows + [
        {"variant": "speedup", "simulated_s": stock / incremental},
    ]


# ----------------------------------------------------------------------
# F16: recovery overhead under a mid-run node kill (fault injection)
# ----------------------------------------------------------------------

#: Fault-schedule seed for F16 (fixed so the checked-in ledger baseline
#: reproduces byte-for-byte).
F16_SEED = 16

#: The killed node reboots and rejoins this many simulated seconds
#: after the crash (an EC2 instance reboot).  This is the term that
#: separates the recovery classes: lineage recompute proceeds on the
#: survivors immediately, while Myria/SciDB hold hash-partitioned
#: state on every worker and must wait the reboot out before redoing
#: work.
F16_RESTART_AFTER_S = 18.0

F16_ENGINES = ("spark", "dask", "myria", "scidb", "tensorflow")

#: Section 2's qualitative recovery claims, one label per engine.
F16_RECOVERY = {
    "spark": "lineage recompute",
    "dask": "reschedule futures",
    "myria": "query restart",
    "scidb": "rerun from ingested array",
    "tensorflow": "rerun from scratch",
}


@trial("f16")
def _trial_f16(kind, n_subjects, n_nodes, profile, restart_after_s, seed):
    subjects = neuro_subjects(n_subjects, **profile)
    base = _f16_baseline(kind, subjects, n_nodes)
    baseline_s = base["end"] - base["start"]
    crash_at = base["ingest_end"] + 0.5 * (base["end"] - base["ingest_end"])
    faulty = _f16_faulty(
        kind, subjects, n_nodes, crash_at, restart_after_s, seed
    )
    faulty_s = faulty["end"] - faulty["start"]
    return {
        "engine": kind,
        "recovery": F16_RECOVERY[kind],
        "baseline_s": baseline_s,
        "faulty_s": faulty_s,
        "overhead_s": faulty_s - baseline_s,
        "overhead_pct": 100.0 * (faulty_s - baseline_s) / baseline_s,
    }


def f16_recovery(*, n_subjects, engines=F16_ENGINES, n_nodes=DEFAULT_NODES,
                 profile=None, restart_after_s=F16_RESTART_AFTER_S,
                 seed=F16_SEED):
    """Kill 1 of ``n_nodes`` at 50% progress of the neuro pipeline.

    For every engine: run the pipeline fault-free to locate the halfway
    point of its compute phase (past ingest), then rerun with a seeded
    :class:`~repro.cluster.faults.FaultPlan` that crashes the last
    node at that instant and reboots it ``restart_after_s`` later.
    Spark recomputes from lineage, Dask reschedules lost futures, Myria
    restarts the query; SciDB and TensorFlow have no recovery path, so
    the harness plays the operator -- wait out the reboot, rerun.
    Returns one row per engine with the recovery overhead.
    """
    profile = profile or NEURO_BENCH
    return grid_rows(
        TrialSpec(
            "f16",
            {"kind": kind, "n_subjects": n_subjects, "n_nodes": n_nodes,
             "profile": dict(profile), "restart_after_s": restart_after_s,
             "seed": seed},
            faults={"crash": "last-node@50%-progress",
                    "restart_after_s": restart_after_s, "seed": seed},
        )
        for kind in engines
    )


def _f16_baseline(kind, subjects, n_nodes):
    """Fault-free reference run; returns absolute phase timestamps."""
    cluster, engine = fresh_engine(kind, n_nodes=n_nodes)
    stage_subjects(cluster.object_store, subjects)
    start = cluster.now
    ingest_end = _f16_pipeline(kind, cluster, engine, subjects)
    return {"start": start, "ingest_end": ingest_end, "end": cluster.now}


def _f16_faulty(kind, subjects, n_nodes, crash_at, restart_after_s, seed):
    """The same pipeline with the last node crashing at ``crash_at``."""
    from repro.cluster.errors import NodeCrashedError
    from repro.cluster.faults import FaultPlan

    cluster, engine = fresh_engine(kind, n_nodes=n_nodes)
    stage_subjects(cluster.object_store, subjects)
    victim = cluster.node_order[-1]  # never the master/coordinator
    cluster.install_faults(
        FaultPlan(seed=seed).crash_node(
            victim, at_time=crash_at, restart_after=restart_after_s
        )
    )
    start = cluster.now
    if kind in ("spark", "dask", "myria"):
        # Recovery is the engine's job (executor recompute or the Myria
        # coordinator's restart loop).
        _f16_pipeline(kind, cluster, engine, subjects)
        return {"start": start, "end": cluster.now, "victim": victim}

    # SciDB and TensorFlow have no recovery path: the operator waits out
    # the reboot and reruns the compute (SciDB from its ingested array).
    lowered = lower(neuro_plan(), kind, engine)
    if kind == "scidb":
        array = lowered.ingest_cohort(subjects, "aio")
        compute = partial(_f16_scidb_compute, lowered, array, subjects)
    elif kind == "tensorflow":
        compute = partial(_f16_tf_compute, lowered, subjects)
    else:
        raise ValueError(f"no F16 runner for {kind!r}")
    try:
        compute()
    except NodeCrashedError as exc:
        _f16_wait_for_reboot(cluster, exc)
        compute()
    return {"start": start, "end": cluster.now, "victim": victim}


def _f16_wait_for_reboot(cluster, exc):
    """No engine-level recovery: wait for the node, then rerun."""
    if exc.recover_at is None:
        raise exc
    if exc.recover_at > cluster.now:
        cluster.charge_master(
            exc.recover_at - cluster.now,
            label="wait for node reboot",
            category="recovery-wait",
            op=PSEUDO_RECOVERY,
        )


def _f16_pipeline(kind, cluster, engine, subjects):
    """Run the neuro pipeline; returns the clock time ingest finished."""
    lowered = lower(neuro_plan(), kind, engine)
    if kind == "spark":
        lowered.bind(subjects)
        rdd = lowered.scan(partitions=cluster.spec.total_slots, cache=True)
        rdd.persist_to_workers()
        ingest_end = cluster.now
        lowered.denoise_and_fit(rdd, lowered.segmentation(rdd))
    elif kind == "dask":
        vols = lowered.download_all(subjects)
        engine.compute([v for per_subject in vols.values() for v in per_subject])
        ingest_end = cluster.now
        lowered.analyze(subjects, vols)
    elif kind == "myria":
        lowered.ingest(subjects)
        ingest_end = cluster.now
        lowered.run(subjects, source="ingested")
    elif kind == "scidb":
        array = lowered.ingest_cohort(subjects, "aio")
        ingest_end = cluster.now
        _f16_scidb_compute(lowered, array, subjects)
    elif kind == "tensorflow":
        ingest_end = cluster.now  # every TF run re-ingests via the master
        _f16_tf_compute(lowered, subjects)
    else:
        raise ValueError(f"no F16 runner for {kind!r}")
    return ingest_end


def _f16_scidb_compute(lowered, array, subjects):
    filtered = lowered.filter_step_cohort(array, subjects)
    lowered.mean_step_cohort(filtered)
    lowered.denoise_step_cohort(
        array, list(reference_masks(subjects).values())
    )


def _f16_tf_compute(lowered, subjects):
    for subject in subjects:
        lowered.run(subject)


# ----------------------------------------------------------------------
# Future-work ablations (Section 6)
# ----------------------------------------------------------------------

@trial("ablation_tf")
def _trial_ablation_tf(free_conversions, n_subjects, profile):
    from repro.cluster.costs import CostModel

    cost_model = CostModel()
    if free_conversions:
        cost_model = cost_model.with_overrides(tensor_convert_bandwidth=1e18)
    return {
        "variant": "free conversions" if free_conversions
                   else "stock TensorFlow",
        "simulated_s": _run_step(
            "tensorflow", fragments.neuro_mean_fragment(),
            neuro_subjects(n_subjects, **profile), {}, {},
            cost_model=cost_model,
        ),
    }


def ablation_tf_format_conversion(*, n_subjects, profile=None):
    """Section 6, "Data Formats": "An interesting area of future work is
    to optimize away these format conversions."  Re-runs the TensorFlow
    mean step with tensor conversion made free, quantifying how much of
    TF's Figure 12b deficit the conversions explain.
    """
    profile = profile or NEURO_BENCH
    rows = grid_rows(
        TrialSpec(
            "ablation_tf",
            {"free_conversions": free, "n_subjects": n_subjects,
             "profile": dict(profile)},
        )
        for free in (False, True)
    )
    stock, no_conversion = (r["simulated_s"] for r in rows)
    return rows + [
        {"variant": "conversion share",
         "simulated_s": 1 - no_conversion / stock},
    ]


@trial("ablation_tuning")
def _trial_ablation_tuning(tuned, n_nodes, profile):
    subjects = neuro_subjects(1, **profile)
    if tuned:
        simulated = run_neuro_end_to_end("spark", subjects, n_nodes=n_nodes)
    else:
        simulated = run_neuro_end_to_end(
            "spark", subjects, n_nodes=n_nodes,
            input_partitions=None,  # the HDFS-block default
            group_partitions=None,
        )
    return {
        "variant": "tuned partitions" if tuned else "default partitions",
        "simulated_s": simulated,
    }


def ablation_spark_self_tuning(profile=None, n_nodes=DEFAULT_NODES):
    """Section 6, "System Tuning": "none of them performed best with the
    default settings."  Compares Spark's default (HDFS-block-like)
    partitioning against the tuned slot count for one subject -- the
    under-utilization the paper observed when "Spark creates only 4
    partitions" (Section 5.3.1).
    """
    profile = profile or {"scale": NEURO_BENCH["scale"], "n_volumes": 288}
    rows = grid_rows(
        TrialSpec(
            "ablation_tuning",
            {"tuned": tuned, "n_nodes": n_nodes, "profile": dict(profile)},
        )
        for tuned in (False, True)
    )
    default, tuned = (r["simulated_s"] for r in rows)
    return rows + [
        {"variant": "speedup", "simulated_s": default / tuned},
    ]
