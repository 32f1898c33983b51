"""Optimized plans execute byte-identically to naive ones.

The one real-plan rewrite the optimizer keeps end to end — astro on
Dask, where the ``exposures -> preprocess -> patches`` chain fuses into
a single carrier — must change the physical task graph without changing a single
byte of the materialized results, and must not lengthen the simulated
makespan.  Engines whose estimates reject every fusion run the *same*
plan object, so their equivalence is structural and asserted as such.
"""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.engines.dask import DaskClient
from repro.harness.experiments import result_digest
from repro.pipelines.astro.staging import stage_visits
from repro.plan import astro_plan, lower, neuro_plan
from repro.plan.opt import optimize_for
from repro.plan.route import astro_profile


def _run_astro_dask(plan, visits):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    client = DaskClient(cluster)
    stage_visits(cluster.object_store, visits)
    coadds, sources = lower(plan, "dask", client).run(visits)
    return cluster, coadds, sources


@pytest.fixture(scope="module")
def astro_runs(tiny_visits):
    naive_cluster, naive_coadds, naive_sources = _run_astro_dask(
        astro_plan(), tiny_visits
    )
    opt = optimize_for(astro_plan(), "dask",
                       profile=astro_profile(tiny_visits))
    opt_cluster, opt_coadds, opt_sources = _run_astro_dask(
        opt.plan, tiny_visits
    )
    return {
        "opt": opt,
        "naive": (naive_cluster, naive_coadds, naive_sources),
        "optimized": (opt_cluster, opt_coadds, opt_sources),
    }


def test_dask_astro_fusion_fires(astro_runs):
    assert [f.site for f in astro_runs["opt"].firings] == [
        ("exposures", "preprocess"), ("exposures+preprocess", "patches"),
    ]


def test_dask_astro_results_byte_identical(astro_runs):
    _, naive_coadds, naive_sources = astro_runs["naive"]
    _, opt_coadds, opt_sources = astro_runs["optimized"]
    assert set(naive_coadds) == set(opt_coadds)
    for patch in naive_coadds:
        assert np.array_equal(
            naive_coadds[patch].array, opt_coadds[patch].array,
            equal_nan=True,
        )
    assert result_digest((naive_coadds, naive_sources)) == \
        result_digest((opt_coadds, opt_sources))


def test_dask_astro_makespan_non_increasing(astro_runs):
    naive_cluster = astro_runs["naive"][0]
    opt_cluster = astro_runs["optimized"][0]
    assert opt_cluster.now <= naive_cluster.now + 1e-6


def test_dask_astro_fewer_physical_tasks(astro_runs):
    # Fusion exists to shrink the Dask graph: three narrow ops per
    # exposure collapse into one task.
    naive_tasks = len(astro_runs["naive"][0].obs.task_records)
    opt_tasks = len(astro_runs["optimized"][0].obs.task_records)
    assert opt_tasks < naive_tasks


@pytest.mark.parametrize("kind", ["spark", "myria"])
def test_rejected_rewrites_leave_plan_structurally_identical(
    kind, tiny_visits
):
    opt = optimize_for(astro_plan(), kind,
                       profile=astro_profile(tiny_visits))
    assert opt.firings == ()
    assert opt.plan.fingerprints() == astro_plan().fingerprints()


@pytest.mark.parametrize("kind", ["dask", "spark", "myria"])
def test_neuro_optimized_plan_is_naive_plan(kind, tiny_subjects):
    from repro.plan.route import neuro_profile

    opt = optimize_for(neuro_plan(), kind,
                       profile=neuro_profile(tiny_subjects))
    assert opt.firings == ()
    assert opt.plan.fingerprints() == neuro_plan().fingerprints()
