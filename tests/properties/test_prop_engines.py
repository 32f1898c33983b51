"""Property-based tests: engine semantics (record conservation etc.)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.engines.base import udf
from repro.engines.dask import DaskClient
from repro.engines.myria import MyriaConnection, MyriaQuery, Relation
from repro.engines.scidb import DimSpec, SciDBConnection
from repro.engines.spark import SparkContext
from repro.obs.spans import PSEUDO_OVERHEAD


def _spark():
    return SparkContext(SimulatedCluster(ClusterSpec(n_nodes=2)))


@given(
    st.lists(st.integers(-100, 100), min_size=1, max_size=60),
    st.integers(1, 12),
)
@settings(max_examples=25, deadline=None)
def test_spark_parallelize_conserves_records(items, slices):
    sc = _spark()
    out = sc.parallelize(items, numSlices=slices).collect()
    assert sorted(out) == sorted(items)


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(-50, 50)),
             min_size=1, max_size=60),
    st.integers(1, 8),
)
@settings(max_examples=25, deadline=None)
def test_spark_groupbykey_conserves_values(pairs, reducers):
    sc = _spark()
    grouped = dict(
        sc.parallelize(pairs, numSlices=4).groupByKey(reducers).collect()
    )
    for key in {k for k, _v in pairs}:
        expected = sorted(v for k, v in pairs if k == key)
        assert sorted(grouped[key]) == expected


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(-50, 50)),
             min_size=1, max_size=60),
)
@settings(max_examples=25, deadline=None)
def test_spark_reducebykey_matches_python_reduce(pairs):
    sc = _spark()
    out = dict(
        sc.parallelize(pairs, numSlices=4)
        .reduceByKey(udf(lambda a, b: a + b), numPartitions=4)
        .collect()
    )
    expected = {}
    for key, value in pairs:
        expected[key] = expected.get(key, 0) + value
    assert out == expected


@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=40))
@settings(max_examples=25, deadline=None)
def test_dask_graph_matches_python(items):
    client = DaskClient(SimulatedCluster(ClusterSpec(n_nodes=2)))
    inc = client.delayed(lambda x: x + 1, op=PSEUDO_OVERHEAD)
    total = client.delayed(lambda *xs: sum(xs), op=PSEUDO_OVERHEAD)
    (result,) = client.compute([total(*[inc(i) for i in items])])
    assert result == sum(i + 1 for i in items)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 9), st.integers(-100, 100)),
        min_size=1, max_size=40,
    )
)
@settings(max_examples=20, deadline=None)
def test_myria_selection_matches_python(rows):
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=2, workers_per_node=4, slots_per_worker=1)
    )
    conn = MyriaConnection(cluster)
    relation = Relation.from_rows("T", ("grp", "idx", "val"), rows)
    conn.ingest_relation(relation, "grp", op=PSEUDO_OVERHEAD)
    q = MyriaQuery.submit(
        conn, "T = SCAN(T); P = [SELECT T.grp, T.val FROM T WHERE T.idx < 5];",
        op=PSEUDO_OVERHEAD
    )
    got = sorted(q.relation("P").rows)
    expected = sorted((g, v) for g, i, v in rows if i < 5)
    assert got == expected


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(-100, 100)),
        min_size=1, max_size=40,
    )
)
@settings(max_examples=20, deadline=None)
def test_myria_uda_matches_python(rows):
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=2, workers_per_node=4, slots_per_worker=1)
    )
    conn = MyriaConnection(cluster)
    conn.ingest_relation(Relation.from_rows("T", ("grp", "val"), rows), "grp",
                         op=PSEUDO_OVERHEAD)
    conn.create_function("SumAgg", udf(lambda vals: sum(vals)))
    q = MyriaQuery.submit(
        conn, "T = SCAN(T); S = [FROM T EMIT T.grp, UDA(SumAgg, T.val) AS s];",
        op=PSEUDO_OVERHEAD
    )
    got = dict(q.relation("S").rows)
    expected = {}
    for g, v in rows:
        expected[g] = expected.get(g, 0) + v
    assert got == expected


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.integers(1, 6),
)
@settings(max_examples=25, deadline=None)
def test_scidb_chunks_tile_real_array(cx, cy, cz, cv):
    """Chunk payloads tile the real array exactly (no gaps/overlap)."""
    rng = np.random.default_rng(0)
    real = rng.random((4, 5, 6, 8))
    dims = [
        DimSpec("x", 40, max(1, 40 // cx)),
        DimSpec("y", 50, max(1, 50 // cy)),
        DimSpec("z", 60, max(1, 60 // cz)),
        DimSpec("v", 80, max(1, 80 // cv)),
    ]
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=2, workers_per_node=4, slots_per_worker=1)
    )
    sdb = SciDBConnection(cluster)
    array = sdb.create_array("t", dims, real)
    coverage = np.zeros(real.shape, dtype=int)
    for coords in array.chunk_grid():
        slices = array.real_slices(coords)
        coverage[slices] += 1
    assert np.all(coverage == 1)


@given(st.integers(2, 64), st.integers(1, 32))
@settings(max_examples=25, deadline=None)
def test_scidb_round_robin_balanced(length, chunk):
    dims = [DimSpec("x", length, min(chunk, length))]
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=2, workers_per_node=4, slots_per_worker=1)
    )
    sdb = SciDBConnection(cluster)
    array = sdb.create_array("t", dims, np.zeros(4))
    counts = {}
    for coords in array.chunk_grid():
        instance = array.instance_of(coords, sdb.n_instances)
        counts[instance] = counts.get(instance, 0) + 1
    assert max(counts.values()) - min(counts.values()) <= 1
