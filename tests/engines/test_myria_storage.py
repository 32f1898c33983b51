"""Tests for Myria's worker storage and sharding."""

import pytest

from repro.cluster.disk import LocalDisk
from repro.engines.myria.relation import Relation, Schema, infer_type
from repro.engines.myria.storage import ShardedRelation, WorkerStorage


@pytest.fixture
def storage():
    disk = LocalDisk("node-0", 10 ** 9)
    s = WorkerStorage(0, "node-0", disk)
    s.create_table("T", Schema(("id", "val")))
    s.insert_rows("T", [(1, "a"), (2, "b"), (3, "c")])
    return s


def test_scan_all(storage):
    rows, scanned, matched = storage.scan("T")
    assert len(rows) == 3
    assert scanned == matched


def test_scan_with_predicate_reads_less(storage):
    rows, scanned, _m = storage.scan("T", predicate=lambda r: r[0] > 1)
    assert len(rows) == 2
    full_rows, full_scanned, _ = storage.scan("T")
    assert scanned < full_scanned


def test_insert_appends(storage):
    storage.insert_rows("T", [(4, "d")])
    assert storage.row_count("T") == 4


def test_drop_table(storage):
    storage.drop_table("T")
    assert not storage.has_table("T")


def test_shard_bytes_positive(storage):
    assert storage.shard_bytes("T") > 0


def test_sharded_relation_routes_by_key():
    sharded = ShardedRelation("T", Schema(("subj", "img")), "subj", 8)
    rows = [(f"s{i % 3}", i) for i in range(30)]
    shards = sharded.shard_rows(rows)
    assert sum(len(s) for s in shards) == 30
    # All rows of one subject land on the same worker.
    for subject in ("s0", "s1", "s2"):
        owners = {
            w for w, shard in enumerate(shards)
            for row in shard if row[0] == subject
        }
        assert len(owners) == 1


def test_schema_validation():
    with pytest.raises(ValueError):
        Schema(("a", "a"))
    with pytest.raises(KeyError):
        Schema(("a", "b")).index_of("c")


def test_relation_arity_checked():
    with pytest.raises(ValueError):
        Relation("T", Schema(("a", "b")), rows=[(1,)])


def test_infer_type():
    import numpy as np

    assert infer_type(3) == "LONG"
    assert infer_type(2.5) == "DOUBLE"
    assert infer_type("x") == "STRING"
    assert infer_type(np.zeros(3)) == "BLOB"
