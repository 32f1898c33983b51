"""The trials every table and figure of the paper's evaluation is a grid of.

A trial is one cell: a registered function of JSON-safe keyword
arguments that returns the cell's measured columns (``simulated_s``
holds seconds on the virtual cluster clock).  A trial is a pure function
of its kwargs and the code, which is what lets the executor run it in
any process and the cache replay it.  Which trial a figure runs, over
which axes and at which sizes is declared once, in
:data:`repro.harness.figures.FIGURES`; :func:`repro.harness.figures.grid`
builds the cells and labels the rows.  See DESIGN.md section 5 for the
experiment index and EXPERIMENTS.md for the paper-vs-measured
comparison.
"""

from collections import namedtuple
from functools import partial

import numpy as np

from repro.cluster.costs import CostModel
from repro.cluster.errors import OutOfMemoryError
from repro.data.catalog import astro_size_table, neuro_size_table
from repro.harness.parallel import trial
from repro.harness.runner import (
    DEFAULT_NODES,
    Stopwatch,
    astro_visits,
    fresh_engine,
    neuro_subjects,
)
from repro.pipelines.astro.staging import staged_visits
from repro.pipelines.neuro.reference import reference_masks
from repro.pipelines.neuro.staging import staged_subjects
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
# (trials like every other cell, so they run under the executor and the
# cache; they build no clusters, so their payloads carry no snapshots)
# ----------------------------------------------------------------------

@trial("table1")
def _trial_table1(use_case):
    from repro.harness.loc import table1_rows

    return {"rows": table1_rows(use_case)}


@trial("fig10a")
def _trial_fig10a():
    return {"rows": neuro_size_table()}


@trial("fig10b")
def _trial_fig10b():
    return {"rows": astro_size_table()}


# ----------------------------------------------------------------------
# End to end (Figures 10c/d, 10g/h, 13, 14, §5.3.3, the tuning ablation)
# ----------------------------------------------------------------------

#: What differs between the two workloads in an end-to-end trial:
#: cohort generator, staged store, plan builder and the tuning keys
#: that are really plan parameters, router profile, and the tuning
#: defaults of the paper's tuned Spark runs beyond one partition per
#: slot (Section 5.3.3: the neuro input RDD is cached).
Pipeline = namedtuple(
    "Pipeline", "cohort staged plan plan_keys profile spark_defaults"
)
PIPELINES = {
    "neuro": Pipeline(neuro_subjects, staged_subjects, neuro_plan,
                      ("n_blocks", "bucket"), route.neuro_profile,
                      {"cache_input": True}),
    "astro": Pipeline(astro_visits, staged_visits, astro_plan,
                      ("bucket",), route.astro_profile, {}),
}


def _end_to_end(pipeline, kind, data, n_nodes=DEFAULT_NODES, optimize=False,
                run_label=None, **tuning):
    """One end-to-end run; returns ``(seconds, results, opt)``.

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
        kind, n_nodes=n_nodes, workers_per_node=tuning.pop("workers_per_node", None),
        object_store=pipe.staged(data),
    )
    if run_label:
        cluster.run_label = run_label
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
    """One tuned end-to-end neuroscience run; returns simulated secs."""
    return _end_to_end("neuro", kind, subjects, n_nodes=n_nodes, **tuning)[0]


def run_astro_end_to_end(kind, visits, n_nodes=DEFAULT_NODES, **tuning):
    """One tuned end-to-end astronomy run; returns simulated seconds."""
    return _end_to_end("astro", kind, visits, n_nodes=n_nodes, **tuning)[0]


@trial("end_to_end")
def _trial_end_to_end(pipeline, engine, count, n_nodes, profile, tuning=None,
                      optimize=False):
    """``pipeline`` on ``engine`` over ``count`` subjects or visits.

    ``tuning`` holds the engine and plan keywords the cell sets (Myria
    workers per node, Spark partitions or input caching); the rest keep
    the tuned defaults of :func:`_end_to_end`.
    """
    data = PIPELINES[pipeline].cohort(count, **profile)
    seconds, _results, _opt = _end_to_end(
        pipeline, engine, data, n_nodes=n_nodes, optimize=optimize,
        **(tuning or {}),
    )
    row = {"simulated_s": seconds}
    if optimize:
        row["optimized"] = True
    return row


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


@trial("optcell")
def _trial_optcell(pipeline, engine, count, n_nodes, profiles):
    """Run one (pipeline, engine) cell naive then optimized.

    Both runs execute on fresh clusters over the same staged dataset
    (``profiles`` maps each pipeline to its dataset profile); the row
    records both makespans, whether the materialized results are
    byte-identical, and the optimizer's firing trace.  This is the cell
    the ``harness ledger --optimize`` gate asserts over:
    ``optimized_s <= naive_s`` and ``identical``.
    """
    data = PIPELINES[pipeline].cohort(count, **profiles[pipeline])
    naive_s, naive_out, _ = _end_to_end(
        pipeline, engine, data, n_nodes=n_nodes,
        run_label=f"{pipeline}-{engine}-naive",
    )
    opt_s, opt_out, opt = _end_to_end(
        pipeline, engine, data, n_nodes=n_nodes, optimize=True,
        run_label=f"{pipeline}-{engine}-optimized",
    )
    return {
        "naive_s": round(naive_s, 3),
        "optimized_s": round(opt_s, 3),
        "saved_s": round(naive_s - opt_s, 3),
        "identical": result_digest(naive_out) == result_digest(opt_out),
        "digest": result_digest(naive_out),
        "rules": "; ".join(f.detail for f in opt.firings) or "(no rewrites)",
        "fingerprint": opt.fingerprint(),
    }


# ----------------------------------------------------------------------
# One step (Figures 11 and 12, §5.3.1, the SciDB and TF ablations)
# ----------------------------------------------------------------------

#: Step systems that are an engine plus a tuning of the measured op:
#: Figure 11's SciDB ingests through ``from_array`` (SciDB-1) or
#: ``aio_input`` (SciDB-2).  Every other system is its engine, untuned.
TUNED_SYSTEMS = {
    "scidb-1": ("scidb", {"method": "from_array"}),
    "scidb-2": ("scidb", {"method": "aio"}),
}


@trial("step")
def _trial_step(fragment, system, count, profile, prepare=None, run=None,
                costs=None):
    """Time one logical op on one system; 16 nodes, warm deployment.

    ``fragment`` names the :mod:`repro.plan.fragments` slice whose last
    op is measured (``"neuro_scan"`` is ``neuro_scan_fragment()``).  The
    engine's lowering owns the protocol: an untimed ``prepare`` leaves
    everything the op reads materialized, then ``run_op`` runs exactly
    that op inside the stopwatch window.  Tunings ride to the call they
    tune: ``prepare`` to the prepared ingest (SciDB's chunk size), ``run``
    to the measured op's ``run_op`` (SciDB's incremental co-add).  ``costs``
    overrides cost-model constants (default: the calibrated model).
    """
    frag = getattr(fragments, f"{fragment}_fragment")()
    pipe = PIPELINES[frag.name]
    data = pipe.cohort(count, **profile)
    kind, system_tuning = TUNED_SYSTEMS.get(system, (system, {}))
    cluster, engine = fresh_engine(
        kind, cost_model=CostModel().with_overrides(**costs) if costs else None,
        object_store=pipe.staged(data),
    )
    op_id = fragments.measured_op(frag)
    lowered = lower(frag, kind, engine)
    lowered.prepare(op_id, data, **(prepare or {}))
    watch = Stopwatch(cluster)
    lowered.run_op(op_id, **system_tuning, **(run or {}))
    return {"simulated_s": watch.lap()}


# ----------------------------------------------------------------------
# Figure 15: Myria memory management (astronomy)
# ----------------------------------------------------------------------

@trial("fig15")
def _trial_fig15(count, mode, n_nodes, chunks, profile):
    """A cell where ``mode`` runs out of memory reports ``"OOM"`` (the
    paper's missing bars)."""
    visits = astro_visits(count, **profile)
    cluster, engine = fresh_engine("myria", n_nodes=n_nodes,
                                   object_store=staged_visits(visits))
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
    return {"simulated_s": result}


# ----------------------------------------------------------------------
# F16: recovery overhead under a mid-run node kill (fault injection)
# ----------------------------------------------------------------------

#: Section 2's qualitative recovery claims, one label per engine.
F16_RECOVERY = {
    "spark": "lineage recompute",
    "dask": "reschedule futures",
    "myria": "query restart",
    "scidb": "rerun from ingested array",
    "tensorflow": "rerun from scratch",
}


@trial("f16")
def _trial_f16(engine, count, n_nodes, profile, restart_after_s, seed):
    """Kill 1 of ``n_nodes`` at 50% progress of the neuro pipeline.

    Run the pipeline fault-free to locate the halfway point of its
    compute phase (past ingest), then rerun with a seeded
    :class:`~repro.cluster.faults.FaultPlan` that crashes the last node
    at that instant and reboots it ``restart_after_s`` later.  Spark
    recomputes from lineage, Dask reschedules lost futures, Myria
    restarts the query; SciDB and TensorFlow have no recovery path, so
    the harness plays the operator -- wait out the reboot, rerun.
    """
    subjects = neuro_subjects(count, **profile)
    base = _f16_baseline(engine, subjects, n_nodes)
    baseline_s = base["end"] - base["start"]
    crash_at = base["ingest_end"] + 0.5 * (base["end"] - base["ingest_end"])
    faulty = _f16_faulty(
        engine, subjects, n_nodes, crash_at, restart_after_s, seed
    )
    faulty_s = faulty["end"] - faulty["start"]
    return {
        "recovery": F16_RECOVERY[engine],
        "baseline_s": baseline_s,
        "faulty_s": faulty_s,
        "overhead_s": faulty_s - baseline_s,
        "overhead_pct": 100.0 * (faulty_s - baseline_s) / baseline_s,
    }


def _f16_baseline(kind, subjects, n_nodes):
    """Fault-free reference run; returns absolute phase timestamps."""
    cluster, engine = fresh_engine(kind, n_nodes=n_nodes,
                                   object_store=staged_subjects(subjects))
    start = cluster.now
    ingest_end = _f16_pipeline(kind, cluster, engine, subjects)
    return {"start": start, "ingest_end": ingest_end, "end": cluster.now}


def _f16_faulty(kind, subjects, n_nodes, crash_at, restart_after_s, seed):
    """The same pipeline with the last node crashing at ``crash_at``."""
    from repro.cluster.errors import NodeCrashedError
    from repro.cluster.faults import FaultPlan

    cluster, engine = fresh_engine(kind, n_nodes=n_nodes,
                                   object_store=staged_subjects(subjects))
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
# The entry points ``bench/workloads.py`` calls (it is frozen with the
# benchmark): thin wrappers over ``figures.grid``
# ----------------------------------------------------------------------

def _grid(name, **overrides):
    from repro.harness.figures import grid

    return grid(name, False, **overrides)


def fig11_ingest(*, subject_counts, profile, systems):
    """Figure 11's rows for ``systems`` at ``subject_counts``."""
    return _grid("fig11", count=subject_counts, profile=profile,
                 system=systems)


def fig12a_filter(*, n_subjects, profile, systems):
    """Figure 12a's rows for ``systems`` over ``n_subjects``."""
    return _grid("fig12a", count=n_subjects, profile=profile, system=systems)


def fig12b_mean(*, n_subjects, profile, systems):
    """Figure 12b's rows for ``systems`` over ``n_subjects``."""
    return _grid("fig12b", count=n_subjects, profile=profile, system=systems)
