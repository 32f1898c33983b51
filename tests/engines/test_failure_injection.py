"""Failure-injection tests: memory pressure and size limits.

Section 5.3.2: "image analytics pipelines can easily experience
out-of-memory failures.  Big data systems can use different approaches
to trade-off query execution time and memory consumption."  Each engine
has a distinct failure (or survival) mode; these tests exercise them.
"""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.cluster.errors import (
    GraphTooLargeError,
    OutOfMemoryError,
    TaskFailedError,
)
from repro.engines.base import udf
from repro.engines.dask import DaskClient
from repro.engines.myria import MyriaConnection, MyriaQuery, Relation
from repro.engines.spark import SparkContext
from repro.formats.sizing import SizedArray
from repro.obs.spans import PSEUDO_OVERHEAD

GB = 10 ** 9


def _big(nbytes):
    return SizedArray(np.zeros(8), nominal_shape=(nbytes // 8,))


def test_spark_survives_oversized_shuffle_by_spilling():
    """Spark "can spill intermediate results to disk to avoid
    out-of-memory failures" -- the job completes, slower."""
    cluster = SimulatedCluster(ClusterSpec(n_nodes=1))
    sc = SparkContext(cluster)
    # 80 GB of records through one 61 GB node.
    records = [(i % 2, _big(10 * GB)) for i in range(8)]
    rdd = sc.parallelize(records, numSlices=4).groupByKey(numPartitions=2)
    parts = rdd.persist_to_workers()
    assert sum(len(p.records) for p in parts) == 2  # both groups exist


def test_spark_spill_costs_time():
    def run(nbytes):
        cluster = SimulatedCluster(ClusterSpec(n_nodes=1))
        sc = SparkContext(cluster)
        sc.ensure_started()
        rdd = sc.parallelize([_big(nbytes)], numSlices=1).map(udf(lambda x: x))
        t0 = cluster.now
        rdd.persist_to_workers()
        return cluster.now - t0

    fits = run(10 * GB)
    spills = run(100 * GB)
    assert spills > fits * 2


def test_myria_pipelined_fails_materialized_survives():
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=1, workers_per_node=4, slots_per_worker=1)
    )
    conn = MyriaConnection(cluster)
    rows = [(i, _big(4 * GB)) for i in range(8)]  # 32 GB of blobs
    conn.ingest_relation(Relation.from_rows("Big", ("id", "blob"), rows), "id",
                         op=PSEUDO_OVERHEAD)
    conn.create_function("Copy", udf(lambda b: b))
    text = """
    T = SCAN(Big);
    A = [FROM T EMIT PYUDF(Copy, T.blob) AS b, T.id];
    B = [FROM A EMIT PYUDF(Copy, A.b) AS b2, A.id];
    C = [FROM B EMIT PYUDF(Copy, B.b2) AS b3, B.id];
    """
    with pytest.raises(OutOfMemoryError):
        MyriaQuery.submit(conn, text, mode="pipelined", op=PSEUDO_OVERHEAD)
    MyriaQuery.submit(conn, text, mode="materialized", op=PSEUDO_OVERHEAD)  # completes


def test_myria_failed_query_releases_memory():
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=1, workers_per_node=4, slots_per_worker=1)
    )
    conn = MyriaConnection(cluster)
    rows = [(i, _big(4 * GB)) for i in range(8)]
    conn.ingest_relation(Relation.from_rows("Big", ("id", "blob"), rows), "id",
                         op=PSEUDO_OVERHEAD)
    conn.create_function("Copy", udf(lambda b: b))
    text = """
    T = SCAN(Big);
    A = [FROM T EMIT PYUDF(Copy, T.blob) AS b, T.id];
    B = [FROM A EMIT PYUDF(Copy, A.b) AS b2, A.id];
    C = [FROM B EMIT PYUDF(Copy, B.b2) AS b3, B.id];
    """
    with pytest.raises(OutOfMemoryError):
        MyriaQuery.submit(conn, text, mode="pipelined", op=PSEUDO_OVERHEAD)
    for node in cluster.nodes.values():
        assert node.memory.used_bytes == 0


def test_dask_results_accumulate_until_oom():
    """Dask has no persistence layer: un-released results pile up in
    worker memory and eventually nothing more fits."""
    cluster = SimulatedCluster(ClusterSpec(n_nodes=1))
    client = DaskClient(cluster)
    make = client.delayed(lambda i: _big(25 * GB), op=PSEUDO_OVERHEAD)
    a = make(0)
    b = make(1)
    c = make(2)
    client.compute([a, b])  # 50 GB resident on a 61 GiB node
    with pytest.raises(OutOfMemoryError):
        client.compute([c])


def test_tf_graph_limit_forces_step_structure():
    """A constant-heavy graph trips the 2 GB limit; splitting the same
    work into per-step graphs (the Figure 9 pattern) succeeds."""
    from repro.engines.tensorflow import Graph, Session, Tensor

    cluster = SimulatedCluster(ClusterSpec(n_nodes=2))
    session = Session(cluster)

    def big_constant(graph):
        node = graph.constant(np.zeros(4))
        node.attrs["value"] = Tensor(np.zeros(4), nominal_shape=(160_000_000,))
        return node  # ~1.28 GB each

    monolith = Graph()
    fetches = [monolith.identity(big_constant(monolith)) for _i in range(2)]
    with pytest.raises(GraphTooLargeError):
        session.run(monolith, fetches, op=PSEUDO_OVERHEAD)

    for _step in range(2):
        graph = Graph()
        fetch = graph.identity(big_constant(graph))
        session.run(graph, [fetch], op=PSEUDO_OVERHEAD)  # each step fits


def test_failing_udf_surfaces_as_task_failure():
    cluster = SimulatedCluster(ClusterSpec(n_nodes=2))
    sc = SparkContext(cluster)

    def boom(x):
        raise RuntimeError("bad record")

    rdd = sc.parallelize([1], numSlices=1).map(udf(boom))
    with pytest.raises(TaskFailedError):
        rdd.collect()
