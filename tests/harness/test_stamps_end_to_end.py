"""Attribution by construction, end to end.

``tests/harness/test_step_windows.py`` checks the 24 step windows; this
is the same check for whole runs: the ``run()`` of all nine lowerings
and F16's ten runs (five engines, clean and with a node killed half way)
at a tiny profile.  Every task record and coordinator charge carries an
explicit ``op``; that op is a provenance id of the plan that was lowered
or a written-out ``@overhead`` / ``@recovery``; and the critical-path
fold adds up those stamps and nothing else.  A lowering that leaves a
record for a lookup to find afterwards fails here.
"""

from collections import defaultdict

import pytest

from repro.harness.figures import FIGURES
from repro.harness.parallel import TRIAL_FNS
from repro.harness.runner import (
    astro_visits,
    fresh_engine,
    neuro_subjects,
    observe_clusters,
)
from repro.obs import attribute_critical_path, compute_critical_path
from repro.pipelines.astro.staging import stage_visits
from repro.pipelines.neuro.staging import stage_subjects
from repro.plan import astro_plan, lower, neuro_plan
from repro.plan.ir import (
    PSEUDO_IDLE,
    PSEUDO_OVERHEAD,
    PSEUDO_RECOVERY,
    provenance_id,
)

TINY_NEURO = {"scale": 20, "n_volumes": 12}
TINY_ASTRO = {"scale": 100, "n_sensors": 4}

ENGINES = ("spark", "dask", "myria", "scidb", "tensorflow")
F16 = FIGURES["f16"]

#: The nine lowerings.  TensorFlow has no astro lowering.
LOWERINGS = [("neuro", kind) for kind in ENGINES] + [
    ("astro", kind) for kind in ENGINES[:4]
]


def _assert_stamped(cluster, plan):
    """Every record is stamped, with an op of ``plan`` or a written-out
    pseudo-op, and the fold is the sum of the stamps."""
    allowed = {provenance_id(plan.name, op.op_id) for op in plan.ops}
    allowed |= {PSEUDO_OVERHEAD, PSEUDO_RECOVERY}
    records = cluster.obs.task_records
    assert records, "the run recorded nothing"
    for record in records:
        assert record.op is not None, f"{record!r} carries no op"
        assert record.op in allowed, (
            f"{record!r} is stamped {record.op!r}, which {plan.name!r} lacks"
        )

    path = compute_critical_path(cluster)
    stamped = defaultdict(float)
    for segment in path.segments:
        record = path.record_for(segment)
        if record is None:
            op = PSEUDO_IDLE
        elif segment.kind == "recovery-wait":
            op = PSEUDO_RECOVERY
        else:
            op = record.op
        stamped[(op, segment.kind)] += segment.duration
    folded = {
        (row["op"], row["kind"]): row["seconds"]
        for row in attribute_critical_path(cluster, path)
    }
    assert folded == dict(stamped)


@pytest.mark.parametrize("workload,kind", LOWERINGS,
                         ids=[f"{w}-{k}" for w, k in LOWERINGS])
def test_run_stamps_every_record(workload, kind):
    cluster, engine = fresh_engine(kind, n_nodes=4)
    if workload == "neuro":
        data = neuro_subjects(1, **TINY_NEURO)
        stage_subjects(cluster.object_store, data)
        plan = neuro_plan()
        if kind in ("scidb", "tensorflow"):
            data = data[0]  # these lower one subject at a time
    else:
        data = astro_visits(2, **TINY_ASTRO)
        stage_visits(cluster.object_store, data)
        plan = astro_plan()
    lower(plan, kind, engine).run(data)
    _assert_stamped(cluster, plan)


def test_myria_statement_scopes_nest():
    """``Masks`` fuses mean_b0+otsu: the shuffle feeding its UDA is the
    group_by's, the UDA the last op's, although the shuffle span opens
    inside the statement span -- the innermost scope wins.  The lazy S3
    scan runs inside whichever statement pulls it, and what no
    statement claims is ``run()``'s ``@overhead``."""
    cluster, conn = fresh_engine("myria", n_nodes=4)
    subjects = neuro_subjects(1, **TINY_NEURO)
    stage_subjects(cluster.object_store, subjects)
    lower(neuro_plan(), "myria", conn).run(subjects)
    ops = defaultdict(set)
    for record in cluster.obs.task_records:
        ops[record.name.rsplit("-w", 1)[0]].add(record.op)
    expected = {
        "myria-s3scan-Images": {"neuro/b0", "neuro/mask_bcast"},
        "myria-shuffle-groupby-Masks": {"neuro/mean_b0"},
        "myria-uda-Masks": {"neuro/otsu"},
        "myria-store-Mask": {PSEUDO_OVERHEAD},
        "Myria broadcast join": {"neuro/mask_bcast"},
        "myria-shuffle-groupby-Fitted": {"neuro/regroup"},
        "myria-uda-Fitted": {"neuro/fitmodel"},
        "Myria query submit": {PSEUDO_OVERHEAD},
        "Myria collect": {PSEUDO_OVERHEAD},
    }
    assert {name: ops[name] for name in expected} == expected


@pytest.fixture(scope="module")
def f16_runs():
    """``{engine: (clean cluster, faulted cluster)}`` of one F16 trial."""
    runs = {}
    for kind in F16.quick["engine"].values:
        clusters = []
        with observe_clusters(clusters.append):
            TRIAL_FNS["f16"](**dict(
                F16.fixed, engine=kind, count=1, n_nodes=4,
                profile=TINY_NEURO,
            ))
        runs[kind] = tuple(clusters)
    return runs


@pytest.mark.parametrize("kind", F16.quick["engine"].values)
def test_f16_stamps_every_record(f16_runs, kind):
    clean, faulted = f16_runs[kind]
    for cluster in (clean, faulted):
        _assert_stamped(cluster, neuro_plan())
    # Recovery is what the crash added: the recompute or the wait for
    # the reboot carries the stamp, and a clean run has nothing to.
    assert any(r.op == PSEUDO_RECOVERY for r in faulted.obs.task_records)
    assert not any(r.op == PSEUDO_RECOVERY for r in clean.obs.task_records)
