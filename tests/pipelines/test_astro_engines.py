"""Cross-engine integration tests: the astronomy pipeline."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.engines.dask import DaskClient
from repro.engines.myria import MyriaConnection
from repro.engines.scidb import SciDBConnection
from repro.engines.spark import SparkContext
from repro.engines.scidb.lowering import astro as scidb_lowering
from repro.pipelines.astro.reference import run_reference
from repro.pipelines.astro.staging import stage_visits
from repro.plan import astro_plan, lower


@pytest.fixture(scope="module")
def reference(tiny_visits):
    return run_reference(tiny_visits)


def _assert_matches(coadds, sources, reference):
    ref_coadds, ref_sources = reference
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


def test_spark_matches_reference(tiny_visits, reference):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    sc = SparkContext(cluster)
    stage_visits(cluster.object_store, tiny_visits)
    coadds, sources = lower(astro_plan(), "spark", sc).run(
        tiny_visits, input_partitions=16
    )
    _assert_matches(coadds, sources, reference)


def test_myria_matches_reference(tiny_visits, reference):
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
    )
    conn = MyriaConnection(cluster)
    stage_visits(cluster.object_store, tiny_visits)
    coadds, sources = lower(astro_plan(), "myria", conn).run(
        tiny_visits, mode="materialized", source="s3"
    )
    _assert_matches(coadds, sources, reference)


def test_myria_multiquery_matches_reference(tiny_visits, reference):
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
    )
    conn = MyriaConnection(cluster)
    stage_visits(cluster.object_store, tiny_visits)
    coadds, sources = lower(astro_plan(), "myria", conn).run(
        tiny_visits, mode="multiquery", chunks=2, source="s3"
    )
    _assert_matches(coadds, sources, reference)


def test_dask_matches_reference(tiny_visits, reference):
    """Our miniDask implementation completes (unlike the paper's
    deployment, which froze; the harness still excludes it from the
    astronomy charts to match the paper's reporting)."""
    cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    client = DaskClient(cluster)
    stage_visits(cluster.object_store, tiny_visits)
    coadds, sources = lower(astro_plan(), "dask", client).run(tiny_visits)
    _assert_matches(coadds, sources, reference)


def test_scidb_coadd_only(tiny_visits):
    """SciDB implements ingest + co-addition; other steps are X/NA."""
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
    )
    sdb = SciDBConnection(cluster)
    coadd = lower(astro_plan(), "scidb", sdb).run(tiny_visits)
    assert coadd.array.ndim == 2
    assert np.nanmax(coadd.array) > 0
    with pytest.raises(NotImplementedError):
        scidb_lowering.preprocess_step()
    with pytest.raises(NotImplementedError):
        scidb_lowering.detect_step()


def test_scidb_mosaic_covers_field(tiny_visits):
    stack, origin, nominal = scidb_lowering.sky_mosaic(tiny_visits)
    assert stack.shape[0] == len(tiny_visits)
    # Every visit contributed non-NaN pixels.
    for vi in range(len(tiny_visits)):
        assert np.isfinite(stack[vi]).any()
    assert nominal[0] == len(tiny_visits)
