"""Tests for miniMyria execution."""

import numpy as np
import pytest

from repro.cluster.errors import OutOfMemoryError
from repro.engines.base import udf
from repro.engines.myria import MyriaConnection, MyriaQuery, Relation
from repro.formats.sizing import SizedArray


@pytest.fixture
def conn(worker_cluster):
    return MyriaConnection(worker_cluster, workers_per_node=4)


@pytest.fixture
def images_conn(conn):
    rows = []
    for s in range(3):
        for i in range(6):
            rows.append(
                (
                    f"subj{s}",
                    i,
                    int(i < 2),
                    SizedArray(
                        np.full((4, 4), float(s * 10 + i)),
                        nominal_shape=(100, 100),
                        meta={"subject_id": f"subj{s}", "image_id": i},
                    ),
                )
            )
    conn.ingest_relation(
        Relation.from_rows("Images", ("subjId", "imgId", "b0flag", "img"), rows),
        "subjId",
    )
    return conn


def test_scan_and_project(images_conn):
    q = MyriaQuery.submit(
        images_conn, "T = SCAN(Images); P = [FROM T EMIT T.subjId, T.imgId];"
    )
    rows = q.relation("P").rows
    assert len(rows) == 18
    assert ("subj0", 0) in rows


def test_selection_pushdown(images_conn):
    q = MyriaQuery.submit(
        images_conn,
        "T = SCAN(Images); B = [SELECT T.subjId, T.imgId FROM T WHERE T.b0flag = 1];",
    )
    rows = q.relation("B").rows
    assert len(rows) == 6  # 2 per subject


def test_comparison_predicates(images_conn):
    q = MyriaQuery.submit(
        images_conn,
        "T = SCAN(Images); B = [SELECT T.imgId FROM T WHERE T.imgId >= 4];",
    )
    assert len(q.relation("B").rows) == 6


def test_pyudf_application(images_conn):
    images_conn.create_function(
        "Double", udf(lambda img: img.with_array(img.array * 2))
    )
    q = MyriaQuery.submit(
        images_conn,
        "T = SCAN(Images); D = [FROM T EMIT PYUDF(Double, T.img) AS img, T.subjId];",
    )
    rows = q.relation("D").rows
    assert len(rows) == 18
    # subj0/img0 had value 0; doubling keeps 0; subj1/img1 had 11 -> 22.
    values = {(r[1], float(r[0].array[0, 0])) for r in rows}
    assert ("subj1", 22.0) in values


def test_broadcast_join(images_conn):
    masks = [
        (f"subj{s}", SizedArray(np.ones((4, 4)) * s, nominal_shape=(100, 100)))
        for s in range(3)
    ]
    images_conn.ingest_relation(
        Relation.from_rows("Mask", ("subjId", "mask"), masks), "subjId"
    )
    q = MyriaQuery.submit(
        images_conn,
        """
        T1 = SCAN(Images);
        T2 = SCAN(Mask);
        J = [SELECT T1.subjId, T1.imgId, T2.mask FROM T1, BROADCAST(T2)
             WHERE T1.subjId = T2.subjId];
        """,
    )
    rows = q.relation("J").rows
    assert len(rows) == 18
    for subj, _img, mask in rows:
        assert float(mask.array[0, 0]) == float(subj[-1])


def test_repartition_join(images_conn):
    flags = [(f"subj{s}", s * 100) for s in range(3)]
    images_conn.ingest_relation(
        Relation.from_rows("Flags", ("subjId", "flag"), flags), "subjId"
    )
    q = MyriaQuery.submit(
        images_conn,
        """
        T1 = SCAN(Images);
        T2 = SCAN(Flags);
        J = [SELECT T1.subjId, T1.imgId, T2.flag FROM T1, T2
             WHERE T1.subjId = T2.subjId];
        """,
    )
    rows = q.relation("J").rows
    assert len(rows) == 18
    assert all(r[2] == int(r[0][-1]) * 100 for r in rows)


def test_uda_implicit_groupby(images_conn):
    images_conn.create_function(
        "CountAgg", udf(lambda imgs: len(imgs))
    )
    q = MyriaQuery.submit(
        images_conn,
        "T = SCAN(Images); C = [FROM T EMIT T.subjId, UDA(CountAgg, T.img) AS n];",
    )
    rows = dict(q.relation("C").rows)
    assert rows == {"subj0": 6, "subj1": 6, "subj2": 6}


def test_unnest_flatmap(images_conn):
    images_conn.create_function(
        "Explode", udf(lambda img: [(0, "a"), (1, "b")])
    )
    q = MyriaQuery.submit(
        images_conn,
        "T = SCAN(Images); X = [FROM T EMIT UNNEST(PYUDF(Explode, T.img)) AS (idx, tag), T.subjId];",
    )
    rows = q.relation("X").rows
    assert len(rows) == 36
    assert (0, "a", "subj0") in rows


def test_store_and_rescan(images_conn):
    MyriaQuery.submit(
        images_conn,
        "T = SCAN(Images); P = [FROM T EMIT T.subjId, T.imgId]; STORE(P, Pairs);",
    )
    q2 = MyriaQuery.submit(
        images_conn, "P = SCAN(Pairs); Q = [SELECT P.subjId FROM P WHERE P.imgId = 0];"
    )
    assert len(q2.relation("Q").rows) == 3


def test_pipelined_faster_than_materialized(images_conn):
    text = "T = SCAN(Images); P = [FROM T EMIT T.subjId, T.img];"
    t0 = images_conn.cluster.now
    MyriaQuery.submit(images_conn, text, mode="pipelined")
    pipelined = images_conn.cluster.now - t0
    t0 = images_conn.cluster.now
    MyriaQuery.submit(images_conn, text, mode="materialized")
    materialized = images_conn.cluster.now - t0
    assert pipelined < materialized


def test_pipelined_releases_memory(images_conn):
    MyriaQuery.submit(
        images_conn, "T = SCAN(Images); P = [FROM T EMIT T.subjId, T.img];"
    )
    for node in images_conn.cluster.nodes.values():
        assert node.memory.used_bytes == 0


def test_pipelined_oom_on_huge_intermediates(conn):
    rows = [
        (i, SizedArray(np.zeros(4), nominal_shape=(3 * 10 ** 9,)))  # 24 GB each
        for i in range(16)
    ]
    conn.ingest_relation(Relation.from_rows("Big", ("id", "blob"), rows), "id")
    conn.create_function("Copy", udf(lambda b: b))
    text = """
    T = SCAN(Big);
    A = [FROM T EMIT PYUDF(Copy, T.blob) AS b1, T.id];
    B = [FROM A EMIT PYUDF(Copy, A.b1) AS b2, A.id];
    C = [FROM B EMIT PYUDF(Copy, B.b2) AS b3, B.id];
    """
    with pytest.raises(OutOfMemoryError):
        MyriaQuery.submit(conn, text, mode="pipelined")
    # Materialized execution survives the same plan.
    MyriaQuery.submit(conn, text, mode="materialized")


def test_workers_partition_relation(images_conn):
    server = images_conn.server
    total = sum(
        storage.row_count("Images") for storage in server.storages
    )
    assert total == 18
    # Hash partitioning on subjId groups each subject on one worker.
    for storage in server.storages:
        if storage.row_count("Images"):
            subjects = {r[0] for r in storage._tables["Images"][1]}
            assert len(subjects) <= 3


def test_s3_relation_scan(conn):
    store = conn.cluster.object_store
    for i in range(12):
        store.put("bkt", f"o{i:02d}", (i, i * 10), 1000)
    conn.register_s3_relation("S3T", "bkt", ("id", "val"), lambda o: o)
    q = MyriaQuery.submit(
        conn, "T = SCAN(S3T); P = [SELECT T.val FROM T WHERE T.id < 3];"
    )
    assert sorted(r[0] for r in q.relation("P").rows) == [0, 10, 20]


def _ingest_one_object(fault_plan):
    """Ingest one staged object on a one-worker deployment; returns
    ``(the cluster's S3 client, loaded objects, the ingest task's
    record)``."""
    from repro.cluster import ClusterSpec, SimulatedCluster

    cluster = SimulatedCluster(ClusterSpec(n_nodes=1))
    conn = MyriaConnection(cluster, workers_per_node=1)
    cluster.object_store.put("bkt", "o0", (0, 10), 1000)
    if fault_plan is not None:
        cluster.install_faults(fault_plan)
    loaded = []

    def loader(obj):
        loaded.append(obj)
        return obj

    conn.ingest_s3("T", "bkt", ("id", "val"), loader, "id")
    (record,) = [
        r for r in cluster.obs.task_records if r.name == "myria-ingest-T-w0"
    ]
    return cluster.s3, loaded, record


def test_s3_ingest_reads_each_object_once_and_charges_retries_once():
    from repro.cluster.faults import FaultPlan

    _s3, _loaded, healthy = _ingest_one_object(None)
    plan = FaultPlan(seed=2).fail_s3(1.0, max_failures_per_key=2)
    s3, loaded, faulted = _ingest_one_object(plan)
    assert loaded == [(0, 10)]
    assert s3.retry_count == 2
    assert faulted.compute_s == pytest.approx(
        healthy.compute_s + plan.retry_policy.total_delay(2)
    )
    assert faulted.category == "myria-ingest"


def test_unknown_relation_rejected(conn):
    with pytest.raises(KeyError):
        MyriaQuery.submit(conn, "T = SCAN(Nope); P = [FROM T EMIT T.x];")


def test_three_way_join_rejected(images_conn):
    with pytest.raises(ValueError):
        MyriaQuery.submit(
            images_conn,
            "A = SCAN(Images); B = SCAN(Images); C = SCAN(Images);"
            "J = [SELECT A.subjId FROM A, B, C WHERE A.subjId = B.subjId];",
        )


def test_contention_factor_shape(worker_cluster):
    """Figure 13: 4 workers/node is the sweet spot on 8-core nodes."""
    from repro.cluster import ClusterSpec, SimulatedCluster

    def throughput(w):
        cluster = SimulatedCluster(
            ClusterSpec(n_nodes=4, workers_per_node=w, slots_per_worker=1)
        )
        conn = MyriaConnection(cluster, workers_per_node=w)
        return w / conn.server.contention_factor()

    assert throughput(4) > throughput(2) > throughput(1)
    assert throughput(4) > throughput(8)


def test_builtin_aggregates(images_conn):
    q = MyriaQuery.submit(
        images_conn,
        """
        T = SCAN(Images);
        Stats = [FROM T EMIT T.subjId, COUNT(T.imgId) AS n,
                 SUM(T.imgId) AS total, MIN(T.imgId) AS lo,
                 MAX(T.imgId) AS hi, AVG(T.imgId) AS mean];
        """,
    )
    rows = {r[0]: r[1:] for r in q.relation("Stats").rows}
    assert rows["subj0"] == (6, 15, 0, 5, 2.5)
    assert set(rows) == {"subj0", "subj1", "subj2"}


def test_builtin_aggregate_needs_no_registration(worker_cluster):
    conn = MyriaConnection(worker_cluster)
    conn.ingest_relation(
        Relation.from_rows("T", ("g", "v"), [(1, 10), (1, 20), (2, 5)]), "g"
    )
    q = MyriaQuery.submit(
        conn, "T = SCAN(T); S = [FROM T EMIT T.g, SUM(T.v) AS s];"
    )
    assert dict(q.relation("S").rows) == {1: 30, 2: 5}
