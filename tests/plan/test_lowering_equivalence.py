"""Cross-engine equivalence of the lowered logical plans.

Each engine backend lowers the *same* :mod:`repro.plan` definition, so
whatever physical strategy it picks (shuffles, graph wiring, MyriaL
text, AFL, per-step TF graphs) the scientific outputs must match the
reference pipelines, lowering must be deterministic (two fresh runs are
bit-identical), and the ledger snapshot of a lowered run must be
byte-stable modulo the ``git_sha`` stamp.
"""

import json

import numpy as np
import pytest

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.engines.dask import DaskClient
from repro.engines.myria import MyriaConnection
from repro.engines.scidb import SciDBConnection
from repro.engines.spark import SparkContext
from repro.engines.tensorflow import Session as TfSession
from repro.obs import run_snapshot
from repro.pipelines.astro.reference import run_reference as astro_reference
from repro.pipelines.astro.staging import stage_visits
from repro.pipelines.neuro.reference import run_reference as neuro_reference
from repro.pipelines.neuro.staging import stage_subjects
from repro.plan import LogicalPlan, astro_plan, lower, neuro_plan

_CTX = {
    "spark": SparkContext,
    "myria": MyriaConnection,
    "dask": DaskClient,
    "scidb": SciDBConnection,
    "tensorflow": TfSession,
}

#: Tuning each engine needs at tiny scale (mirrors the engine tests).
_NEURO_TUNING = {
    "spark": {"input_partitions": 16},
    "myria": {"source": "s3"},
    "dask": {},
}
_ASTRO_TUNING = {
    "spark": {"input_partitions": 16},
    "myria": {"source": "s3"},
    "dask": {},
}


def _cluster(kind):
    if kind in ("myria", "scidb"):
        return SimulatedCluster(
            ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
        )
    return SimulatedCluster(ClusterSpec(n_nodes=4))


def _run_neuro(kind, subjects):
    cluster = _cluster(kind)
    ctx = _CTX[kind](cluster)
    stage_subjects(cluster.object_store, subjects)
    lowered = lower(neuro_plan(), kind, ctx)
    masks, fa = lowered.run(subjects, **_NEURO_TUNING[kind])
    return cluster, masks, fa


def _run_astro(kind, visits):
    cluster = _cluster(kind)
    ctx = _CTX[kind](cluster)
    stage_visits(cluster.object_store, visits)
    lowered = lower(astro_plan(), kind, ctx)
    coadds, sources = lowered.run(visits, **_ASTRO_TUNING[kind])
    return cluster, coadds, sources


@pytest.fixture(scope="module")
def neuro_ref(tiny_subjects):
    return {s.subject_id: neuro_reference(s) for s in tiny_subjects}


@pytest.fixture(scope="module")
def astro_ref(tiny_visits):
    return astro_reference(tiny_visits)


# ----------------------------------------------------------------------
# Full lowerings match the reference pipelines
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["spark", "myria", "dask"])
def test_neuro_lowering_matches_reference(kind, tiny_subjects, neuro_ref):
    _, masks, fa = _run_neuro(kind, tiny_subjects)
    for s in tiny_subjects:
        ref_mask, _denoised, ref_fa = neuro_ref[s.subject_id]
        assert np.array_equal(masks[s.subject_id], ref_mask)
        assert np.allclose(fa[s.subject_id].array, ref_fa, atol=1e-10)


@pytest.mark.parametrize("kind", ["spark", "myria", "dask"])
def test_astro_lowering_matches_reference(kind, tiny_visits, astro_ref):
    _, coadds, sources = _run_astro(kind, tiny_visits)
    ref_coadds, ref_sources = astro_ref
    assert set(coadds) == set(ref_coadds)
    for patch in ref_coadds:
        assert np.allclose(
            np.nan_to_num(coadds[patch].array),
            np.nan_to_num(ref_coadds[patch].array),
            atol=1e-8,
        )
    assert sum(len(s) for s in sources.values()) == sum(
        len(s) for s in ref_sources.values()
    )


# ----------------------------------------------------------------------
# Partial lowerings: the pattern-matched subsets and their refusals
# ----------------------------------------------------------------------

def test_scidb_neuro_lowering_partial(tiny_subjects, neuro_ref):
    cluster = _cluster("scidb")
    lowered = lower(neuro_plan(), "scidb", SciDBConnection(cluster))
    subject = tiny_subjects[0]
    mask, denoised = lowered.run(subject, ingest_method="aio")
    ref_mask, ref_denoised, _fa = neuro_ref[subject.subject_id]
    assert np.array_equal(mask, ref_mask)
    assert np.allclose(denoised.real, ref_denoised, atol=1e-9)
    with pytest.raises(NotImplementedError, match="lacks the operations"):
        lowered.fit_step()


def test_scidb_astro_lowering_partial(tiny_visits):
    cluster = _cluster("scidb")
    lowered = lower(astro_plan(), "scidb", SciDBConnection(cluster))
    coadd = lowered.run(tiny_visits)
    assert coadd.array.ndim == 2
    assert np.nanmax(coadd.array) > 0
    with pytest.raises(NotImplementedError, match="not expressible"):
        lowered.preprocess_step()
    with pytest.raises(NotImplementedError):
        lowered.detect_step()


def test_tensorflow_neuro_lowering_partial(tiny_subjects, neuro_ref):
    cluster = _cluster("tensorflow")
    lowered = lower(neuro_plan(), "tensorflow", TfSession(cluster))
    subject = tiny_subjects[0]
    mask, denoised = lowered.run(subject)
    ref_mask = neuro_ref[subject.subject_id][0]
    overlap = (mask & ref_mask).sum() / ref_mask.sum()
    assert overlap > 0.8
    assert denoised.array.shape == subject.data.array.shape
    with pytest.raises(NotImplementedError, match="not implemented"):
        lowered.fit_step()


def test_tensorflow_refuses_astro_plan():
    cluster = _cluster("tensorflow")
    with pytest.raises(NotImplementedError, match="no TensorFlow lowering"):
        lower(astro_plan(), "tensorflow", TfSession(cluster))


@pytest.mark.parametrize("engine",
                         ["dask", "myria", "scidb", "spark", "tensorflow"])
@pytest.mark.parametrize("name", ["genomics", "walker", "neuro.x", "Neuro"])
def test_a_plan_without_a_lowering_module_is_refused(engine, name):
    """``lower`` imports ``<engine>.lowering.<plan name>``; a name with
    no such module (or a helper module, like Spark's walker) is an
    unknown plan."""
    plan = LogicalPlan(name=name, ops=neuro_plan().ops)
    with pytest.raises(NotImplementedError) as refused:
        lower(plan, engine, _CTX[engine](_cluster(engine)))
    assert str(refused.value) == f"{engine} lowering: unknown plan {name!r}"


# ----------------------------------------------------------------------
# Byte-stability: lowering is deterministic and so are its ledgers
# ----------------------------------------------------------------------

def _snapshot_json(cluster):
    snapshot = run_snapshot(cluster, label="equivalence")
    return json.dumps(
        {k: v for k, v in snapshot.items() if k != "git_sha"},
        sort_keys=True,
    )


@pytest.mark.parametrize("kind", ["spark", "myria", "dask"])
def test_neuro_lowering_ledger_byte_stable(kind, tiny_subjects):
    c1, _m1, fa1 = _run_neuro(kind, tiny_subjects)
    c2, _m2, fa2 = _run_neuro(kind, tiny_subjects)
    for s in tiny_subjects:
        assert np.array_equal(fa1[s.subject_id].array, fa2[s.subject_id].array)
    assert _snapshot_json(c1) == _snapshot_json(c2)


def test_astro_lowering_ledger_byte_stable(tiny_visits):
    c1, coadds1, _s1 = _run_astro("spark", tiny_visits)
    c2, coadds2, _s2 = _run_astro("spark", tiny_visits)
    for patch in coadds1:
        assert np.array_equal(
            np.nan_to_num(coadds1[patch].array),
            np.nan_to_num(coadds2[patch].array),
        )
    assert _snapshot_json(c1) == _snapshot_json(c2)
