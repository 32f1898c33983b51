"""Per-engine recovery semantics under an injected node crash.

Section 2's fault-tolerance contrasts, made executable: Spark
recomputes lost partitions from lineage, Dask reschedules lost futures
onto the survivors, Myria's coordinator restarts the query, while
SciDB and TensorFlow surface the crash to the caller (who reruns).
"""

import numpy as np
import pytest

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.cluster.errors import NodeCrashedError
from repro.cluster.faults import FaultPlan, RecoveryPolicy
from repro.engines.base import udf
from repro.engines.dask import DaskClient
from repro.engines.myria import MyriaConnection, MyriaQuery, Relation
from repro.engines.scidb import DimSpec, SciDBConnection
from repro.engines.spark import SparkContext
from repro.engines.tensorflow import Graph, Session
from repro.obs.breakdown import records_of
from repro.formats.sizing import SizedArray
from repro.obs.spans import PSEUDO_OVERHEAD


def _four_nodes():
    return SimulatedCluster(ClusterSpec(n_nodes=4))


def _worker_nodes():
    return SimulatedCluster(
        ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
    )


# ----------------------------------------------------------------------
# Spark: lineage recompute
# ----------------------------------------------------------------------

def _spark_job(cluster):
    sc = SparkContext(cluster)
    rdd = sc.parallelize(list(range(32)), numSlices=32).map(
        udf(lambda x: x + 1, cost=lambda x: 2.0)
    )
    return sorted(rdd.collect())


def test_spark_installs_recompute_policy():
    cluster = _four_nodes()
    SparkContext(cluster)
    assert cluster.recovery_policy.mode == RecoveryPolicy.RECOMPUTE
    assert cluster.recovery_policy.blacklist


def test_spark_job_survives_mid_stage_crash():
    baseline = _four_nodes()
    expected = _spark_job(baseline)
    half = baseline.now / 2

    cluster = _four_nodes()
    cluster.install_faults(FaultPlan(seed=5).crash_node("node-3", at_time=half))
    assert _spark_job(cluster) == expected
    # The survivors redid the victim's killed attempts...
    assert cluster.node("node-3").retried_tasks > 0
    assert cluster.node("node-3").failed_tasks > 0
    # ...and the run costs more than the fault-free baseline.
    assert cluster.now > baseline.now


def test_spark_recomputes_lost_cached_partitions_from_lineage():
    def job(cluster, plan=None):
        sc = SparkContext(cluster)
        cached = sc.parallelize(list(range(16)), numSlices=16).map(
            udf(lambda x: x * 10, cost=lambda x: 1.0)
        ).cache()
        cached.persist_to_workers()
        if plan is not None:
            cluster.install_faults(plan)
        follow = cached.map(udf(lambda x: x + 1, cost=lambda x: 1.0))
        return sorted(follow.collect())

    baseline = _four_nodes()
    expected = job(baseline)

    cluster = _four_nodes()
    # Crash immediately after the cache materialized: the follow-up
    # stage finds node-3's cached partitions gone and recomputes them.
    got = job(cluster, FaultPlan(seed=5).crash_node("node-3", at_time=0.01))
    assert got == expected
    recomputed = [
        r for r in records_of(cluster) if r.category == "spark-recompute"
    ]
    assert recomputed


# ----------------------------------------------------------------------
# Dask: reschedule lost futures
# ----------------------------------------------------------------------

def test_dask_purges_and_recomputes_lost_futures():
    cluster = _four_nodes()
    client = DaskClient(cluster)
    calls = []

    def source(i):
        calls.append(i)
        return i * 2

    futures = [
        client.delayed(source, cost=lambda i: 1.0,
                       op=PSEUDO_OVERHEAD)(i) for i in range(8)
    ]
    assert client.compute(futures) == [0, 2, 4, 6, 8, 10, 12, 14]
    first_calls = len(calls)

    # A node dies and reboots while unrelated work runs: its futures
    # are lost even though the node is back (fresh process, empty
    # memory).  The next barrier purges and recomputes them.
    cluster.install_faults(
        FaultPlan(seed=6).crash_node("node-2", at_time=cluster.now + 0.005,
                                     restart_after=0.01)
    )
    client.delayed(lambda: None, cost=lambda: 1.0, op=PSEUDO_OVERHEAD)().result()
    assert cluster.node("node-2").alive
    downstream = [
        client.delayed(lambda x: x + 1, cost=lambda x: 1.0, op=PSEUDO_OVERHEAD)(f)
        for f in futures
    ]
    assert client.compute(downstream) == [1, 3, 5, 7, 9, 11, 13, 15]
    assert client.lost_futures > 0
    # Only the lost partitions re-ran their source.
    assert first_calls < len(calls) < 2 * first_calls


def test_dask_future_loss_is_transparent_to_the_caller():
    cluster = _four_nodes()
    client = DaskClient(cluster)
    calls = []

    def source():
        calls.append(1)
        return 41

    f = client.delayed(source, cost=lambda: 1.0, op=PSEUDO_OVERHEAD)()
    assert f.result() == 41
    owner = client._result_nodes[f.key]
    cluster.install_faults(
        FaultPlan(seed=6).crash_node(owner, at_time=cluster.now + 0.005,
                                     restart_after=0.01)
    )
    # Unrelated work rides out the crash and reboot.
    client.delayed(lambda: None, cost=lambda: 1.0, op=PSEUDO_OVERHEAD)().result()
    g = client.delayed(lambda x: x + 1, cost=lambda x: 1.0, op=PSEUDO_OVERHEAD)(f)
    # The caller sees the right answer; underneath, f was recomputed.
    assert g.result() == 42
    assert len(calls) == 2
    assert client.lost_futures == 1


# ----------------------------------------------------------------------
# Myria: coordinator restarts the query
# ----------------------------------------------------------------------

def _myria_setup(cluster):
    conn = MyriaConnection(cluster, workers_per_node=4)
    rows = []
    for s in range(4):
        for i in range(8):
            rows.append(
                (
                    f"subj{s}",
                    i,
                    SizedArray(
                        np.full((4, 4), float(i)),
                        nominal_shape=(2000, 2000),
                        meta={"subject_id": f"subj{s}", "image_id": i},
                    ),
                )
            )
    conn.ingest_relation(
        Relation.from_rows("Images", ("subjId", "imgId", "img"), rows),
        "subjId", op=PSEUDO_OVERHEAD,
    )
    return conn


_MYRIA_PROGRAM = (
    "T = SCAN(Images);"
    " S = [FROM T EMIT T.subjId, T.imgId];"
    " STORE(S, Pairs);"
)


_RESCAN = "P = SCAN(Pairs); Q = [FROM P EMIT P.subjId, P.imgId];"


def test_myria_restarts_query_after_worker_crash():
    baseline_cluster = _worker_nodes()
    conn = _myria_setup(baseline_cluster)
    ingest_end = baseline_cluster.now
    query_start = baseline_cluster.now
    MyriaQuery.submit(conn, _MYRIA_PROGRAM, op=PSEUDO_OVERHEAD)
    query_end = baseline_cluster.now
    expected = sorted(
        MyriaQuery.submit(conn, _RESCAN, op=PSEUDO_OVERHEAD).relation("Q").rows
    )
    assert ingest_end == query_start
    crash_at = query_start + 0.5 * (query_end - query_start)

    cluster = _worker_nodes()
    conn = _myria_setup(cluster)
    cluster.install_faults(
        FaultPlan(seed=7).crash_node("node-3", at_time=crash_at,
                                     restart_after=5.0)
    )
    MyriaQuery.submit(conn, _MYRIA_PROGRAM, op=PSEUDO_OVERHEAD)
    # Same answer, no duplicated rows from the aborted attempt.
    got = sorted(MyriaQuery.submit(conn, _RESCAN,
                                   op=PSEUDO_OVERHEAD).relation("Q").rows)
    assert got == expected
    # One restart: its wait was charged once, under its blame category.
    assert len([
        r for r in records_of(cluster) if r.category == "myria-restart"
    ]) == 1
    assert cluster.now > crash_at + 5.0


def test_myria_restart_rolls_back_partial_stores():
    cluster = _worker_nodes()
    conn = _myria_setup(cluster)
    server = conn.server
    cluster.install_faults(
        FaultPlan(seed=7).crash_node("node-3", at_time=cluster.now + 0.01,
                                     restart_after=1.0)
    )
    MyriaQuery.submit(conn, _MYRIA_PROGRAM, op=PSEUDO_OVERHEAD)
    # The catalog holds exactly one fully-populated Pairs relation;
    # shards inserted by the aborted attempt were rolled back.
    assert "Pairs" in server.catalog
    total = sum(
        storage.row_count("Pairs")
        for storage in server.storages
        if storage.has_table("Pairs")
    )
    assert total == 32


def test_myria_gives_up_after_max_restarts():
    cluster = _worker_nodes()
    conn = _myria_setup(cluster)
    # The node never comes back: every restart attempt finds it dead.
    cluster.install_faults(
        FaultPlan(seed=7).crash_node("node-3", at_time=cluster.now + 0.01)
    )
    with pytest.raises(NodeCrashedError):
        MyriaQuery.submit(conn, _MYRIA_PROGRAM, op=PSEUDO_OVERHEAD)


# ----------------------------------------------------------------------
# SciDB and TensorFlow: no recovery, the crash surfaces
# ----------------------------------------------------------------------

def test_scidb_crash_aborts_to_caller(rng):
    cluster = _worker_nodes()
    sdb = SciDBConnection(cluster, instances_per_node=4)
    assert cluster.recovery_policy.mode == RecoveryPolicy.ABORT
    real = rng.random((8, 8, 24))
    dims = [
        DimSpec("x", 145, 145),
        DimSpec("y", 145, 145),
        DimSpec("vol", 288, 16),
    ]
    array = sdb.create_array("data", dims, real)
    cluster.install_faults(
        FaultPlan(seed=8).crash_node("node-2", at_time=cluster.now + 0.01,
                                     restart_after=2.0)
    )
    with pytest.raises(NodeCrashedError) as info:
        sdb.apply_elementwise(array, lambda x: x + 1.0, per_element_cost=1e-9,
                              op=PSEUDO_OVERHEAD)
    assert info.value.recover_at is not None


def test_tensorflow_crash_aborts_to_caller(rng):
    cluster = _four_nodes()
    session = Session(cluster)
    assert cluster.recovery_policy.mode == RecoveryPolicy.ABORT
    g = Graph()
    ph = g.placeholder((2000, 2000))
    out = g.reduce_mean(ph, axis=None)
    cluster.install_faults(
        FaultPlan(seed=9).crash_node("node-1", at_time=cluster.now + 0.01)
    )
    with pytest.raises(NodeCrashedError):
        session.run(
            g, [out],
            feed_dict={ph: SizedArray(rng.random((8, 8)),
                                      nominal_shape=(2000, 2000))}, op=PSEUDO_OVERHEAD,
        )
