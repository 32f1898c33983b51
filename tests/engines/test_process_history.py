"""A trial's task stream is a function of the trial alone.

Dask and TensorFlow task names embed counters (delayed keys, graph-node
ids) and transient-fault draws are keyed on task names.  When those
counters were process-global, the same Dask neuro trial under the plan
below took 658.174 virtual seconds the first time and 657.377 the
second time in one process (TensorFlow: 100.560 vs 102.713).  Every
name-bearing counter now lives on the engine object the trial builds,
so any trial must repeat exactly whatever the process ran before it.
The same holds for the memoized inputs: a trial that generates its
cohort and one that finds it in the memo run the same tasks.
"""

import json

import pytest

from repro.cluster.faults import FaultPlan, RetryPolicy
from repro.data import generate_subject
from repro.harness.figures import FIGURES
from repro.harness.parallel import TRIAL_FNS
from repro.harness.runner import (
    astro_visits,
    fresh_engine,
    neuro_subjects,
    observe_clusters,
)
from repro.obs.breakdown import records_of
from repro.obs.ledger import run_snapshot
from repro.pipelines.astro.staging import stage_visits
from repro.pipelines.neuro.staging import stage_subjects
from repro.plan import astro_plan, lower, neuro_plan

ENGINES = ("spark", "myria", "dask", "scidb", "tensorflow")

#: (workload, engine, faulted).  TensorFlow has no astro lowering.
CELLS = [
    (workload, kind, faulted)
    for workload, kinds in (("neuro", ENGINES), ("astro", ENGINES[:4]))
    for kind in kinds
    for faulted in (False, True)
]


def _transient_faults():
    return FaultPlan(
        seed=7, retry_policy=RetryPolicy(max_attempts=6)
    ).fail_tasks(0.2, detect_delay_s=0.3, max_failures_per_task=2)


def _run(workload, kind, faulted):
    """One tiny trial with the figures' tuning defaults; returns what a
    consumer can observe of it: makespan, ledger snapshot bytes and the
    placed task stream."""
    cluster, engine = fresh_engine(kind, n_nodes=4)
    if workload == "neuro":
        data = neuro_subjects(1, scale=20, n_volumes=24)
        stage_subjects(cluster.object_store, data)
        plan = neuro_plan()
        if kind in ("scidb", "tensorflow"):
            data = data[0]  # these lower one subject at a time
    else:
        data = astro_visits(2, scale=100, n_sensors=4)
        stage_visits(cluster.object_store, data)
        plan = astro_plan()
    tuning = {}
    if kind == "spark":
        tuning["input_partitions"] = cluster.spec.total_slots
        if workload == "neuro":
            tuning["cache_input"] = True
    elif kind == "myria":
        tuning["source"] = "s3"
    if faulted:
        cluster.install_faults(_transient_faults())
    lower(plan, kind, engine).run(data, **tuning)
    return (
        cluster.now,
        json.dumps(run_snapshot(cluster), sort_keys=True),
        [(r.name, r.node, r.start, r.end) for r in records_of(cluster)],
    )


@pytest.fixture(scope="module")
def histories():
    """Every cell three times: twice back to back, then once more in
    reverse cell order, so the third run follows a different prefix of
    other engines' trials than the first."""
    runs = {cell: [_run(*cell), _run(*cell)] for cell in CELLS}
    for cell in reversed(CELLS):
        runs[cell].append(_run(*cell))
    return runs


@pytest.mark.parametrize(
    "cell", CELLS,
    ids=[f"{w}-{k}-{'faulted' if f else 'clean'}" for w, k, f in CELLS],
)
def test_trial_repeats_exactly_whatever_ran_before(histories, cell):
    first, *later = histories[cell]
    for run in later:
        assert run[0] == first[0], (
            f"{first[0]:.3f} virtual s the first time, {run[0]:.3f} later"
        )
        assert run[1] == first[1]  # ledger snapshot bytes
        assert run[2] == first[2]  # (name, node, start, end) per task


#: figure -> (the measured cell, other systems of the same figure, whose
#: trials read the same two-subject cohort).
STEP_CELLS = {
    "fig11": ({"system": "dask", "count": 2},
              ("spark", "scidb-1", "tensorflow")),
    "fig12a": ({"system": "myria", "count": 2},
               ("dask", "spark", "scidb")),
}


def _step_cell(figure, **kwargs):
    """One step-figure trial's makespan and ledger snapshot bytes."""
    clusters = []
    with observe_clusters(clusters.append):
        TRIAL_FNS["step"](profile={"scale": 20, "n_volumes": 24},
                          **FIGURES[figure].fixed, **kwargs)
    (cluster,) = clusters
    return cluster.now, json.dumps(run_snapshot(cluster), sort_keys=True)


@pytest.mark.parametrize("figure", sorted(STEP_CELLS))
def test_step_cell_repeats_whatever_the_memo_holds(figure):
    cell, others = STEP_CELLS[figure]
    generate_subject.cache_clear()
    cold = _step_cell(figure, **cell)

    generate_subject.cache_clear()
    for system in others:
        _step_cell(figure, **dict(cell, system=system))
    hits = generate_subject.cache_info().hits
    warm = _step_cell(figure, **cell)
    assert generate_subject.cache_info().hits > hits  # read from the memo

    assert warm[0] == cold[0]  # makespan
    assert warm[1] == cold[1]  # ledger snapshot bytes


def test_myria_masks_belong_to_their_connection():
    """Two Myria trials interleaved in one process keep their own masks.

    Cohorts share ``subjNNN`` ids across seeds, and the FitModel UDA
    reads the mask its lowering captured driver-side after the mask
    query.  When that capture was a module-level dict, running cohort
    B's mask query between cohort A's two queries fitted A's voxels
    under B's masks, silently.
    """
    import numpy as np

    from repro.data import generate_subject
    from repro.engines.myria.lowering.neuro import pipeline_query

    def cohort(seed):
        return [generate_subject("subj000", seed=seed, scale=20, n_volumes=24)]

    def lowered_for(subjects):
        cluster, conn = fresh_engine("myria", n_nodes=4)
        stage_subjects(cluster.object_store, subjects)
        return lower(neuro_plan(), "myria", conn)

    def mask_query(low, subjects):
        low.register_s3(subjects)
        low.register_udfs(subjects)
        return low.compute_masks("pipelined")

    def fit_query(low):
        query = pipeline_query(low.plan).submit(low.conn)
        return {
            (subj, block): fa.array
            for subj, block, fa in query.relation("Fitted").rows
        }

    a, b = cohort(seed=1), cohort(seed=2)
    alone = lowered_for(a)
    masks_a = mask_query(alone, a)
    expected = fit_query(alone)

    first, second = lowered_for(a), lowered_for(b)
    mask_query(first, a)
    masks_b = mask_query(second, b)
    assert not np.array_equal(masks_a["subj000"], masks_b["subj000"])
    fitted = fit_query(first)
    assert fitted.keys() == expected.keys()
    for key, fa in expected.items():
        assert np.array_equal(fitted[key], fa, equal_nan=True), key
