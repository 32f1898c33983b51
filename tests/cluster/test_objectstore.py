"""Tests for the S3-like object store."""

from collections import namedtuple

import pytest

from repro.cluster import ClusterSpec, FaultPlan, SimulatedCluster, Task
from repro.cluster.objectstore import ObjectStore, S3Client, staged
from repro.obs.spans import PSEUDO_OVERHEAD

Member = namedtuple("Member", "name size")


@pytest.fixture
def store():
    s = ObjectStore()
    s.put("bucket", "k1", b"one", 3)
    s.put("bucket", "k2", b"two", 3)
    s.put("other", "k1", b"xxx", 3)
    return s


def test_get(store):
    assert S3Client(store).get("bucket", "k1") == b"one"


def test_missing_key_raises(store):
    with pytest.raises(KeyError):
        S3Client(store).get("bucket", "nope")


def test_list_keys_scoped_to_bucket(store):
    assert store.list_keys("bucket") == ["k1", "k2"]
    assert store.list_keys("other") == ["k1"]


def test_list_keys_prefix(store):
    store.put("bucket", "sub/a", 1, 1)
    store.put("bucket", "sub/b", 1, 1)
    assert store.list_keys("bucket", prefix="sub/") == ["sub/a", "sub/b"]


def test_total_bytes(store):
    assert store.total_bytes("bucket") == 6


def test_size_of(store):
    assert store.size_of("bucket", "k1") == 3


def test_overwrite(store):
    store.put("bucket", "k1", b"new", 3)
    assert S3Client(store).get("bucket", "k1") == b"new"
    assert len(store) == 3


def test_empty_bucket_or_key_rejected(store):
    with pytest.raises(ValueError):
        store.put("", "k", 1, 1)
    with pytest.raises(ValueError):
        store.put("b", "", 1, 1)


def test_negative_size_rejected(store):
    with pytest.raises(ValueError):
        store.put("b", "k", 1, -1)


def test_slash_in_bucket_rejected_so_buckets_cannot_alias(store):
    # "a/b" + "c" and "a" + "b/c" used to be one "a/b/c" entry: the
    # second put overwrote the first, and bucket "a" listed it.
    store.put("a", "b/c", b"first", 5)
    with pytest.raises(ValueError):
        store.put("a/b", "c", b"second", 6)
    assert S3Client(store).get("a", "b/c") == b"first"
    assert store.list_keys("a") == ["b/c"]
    assert store.total_bytes("a") == 5
    assert len(store) == 4


def test_listing_follows_puts(store):
    assert store.list_keys("bucket") == ["k1", "k2"]
    store.put("bucket", "k0", b"zero", 4)
    assert store.list_keys("bucket") == ["k0", "k1", "k2"]
    assert store.total_bytes("bucket") == 10
    assert store.list_keys("missing") == []
    assert store.total_bytes("missing") == 0


def test_prefix_totals_read_the_running_sums(store):
    for name, size in (("sub/a", 1), ("sub/b", 2), ("sub0", 40), ("su", 8)):
        store.put("bucket", name, None, size)
    assert store.list_keys("bucket", prefix="sub") == ["sub/a", "sub/b", "sub0"]
    assert store.total_bytes("bucket", prefix="sub/") == 3
    assert store.total_bytes("bucket", prefix="sub") == 43
    assert store.total_bytes("bucket", prefix="zz") == 0
    assert store.list_keys("bucket", prefix="k") == ["k1", "k2"]


def test_frozen_store_rejects_puts(store):
    store.freeze()
    with pytest.raises(TypeError):
        store.put("bucket", "k3", b"x", 1)
    assert store.list_keys("bucket") == ["k1", "k2"]


def test_mount_copies_the_entries(store):
    staged = store.freeze()
    own = ObjectStore()
    own.put("other", "k9", b"mine", 4)
    own.mount(staged)
    assert own.list_keys("bucket") == ["k1", "k2"]
    assert own.list_keys("other") == ["k1", "k9"]
    assert own.total_bytes("other") == 7
    own.put("bucket", "k3", b"new", 3)
    assert own.total_bytes("bucket") == 9
    assert staged.list_keys("bucket") == ["k1", "k2"]
    assert staged.total_bytes("bucket") == 6
    with pytest.raises(TypeError):
        staged.mount(own)


def test_staged_store_is_built_once_per_cohort_and_bucket(monkeypatch):
    monkeypatch.setattr("repro.cluster.objectstore._STAGED", {})
    built = []

    def entries(member):
        built.append(member)
        yield f"{member.name}/obj", member, member.size

    cohort = [Member("x", 1), Member("y", 4)]
    first = staged("bkt", cohort, entries)
    assert staged("bkt", tuple(cohort), entries) is first
    assert built == cohort
    assert first.frozen
    assert first.list_keys("bkt") == ["x/obj", "y/obj"]
    assert first.total_bytes("bkt") == 5
    assert staged("other", cohort, entries) is not first
    # Members are matched by identity, not by value.
    assert staged("bkt", [Member("x", 1), Member("y", 4)], entries) is not first


def test_fault_state_belongs_to_the_reading_cluster():
    shared = ObjectStore()
    shared.put("bucket", "k0", b"x", 100)
    shared.freeze()
    faulted, clean = (
        SimulatedCluster(ClusterSpec(n_nodes=1), object_store=shared)
        for _ in range(2)
    )
    plan = FaultPlan(seed=2).fail_s3(1.0, max_failures_per_key=2)
    faulted.install_faults(plan)
    for cluster in (faulted, clean):
        assert cluster.object_store is shared
        cluster.run([Task("read", fn=lambda c=cluster: c.s3.get("bucket", "k0"),
                          duration=1.0, op=PSEUDO_OVERHEAD)])
    assert faulted.s3.retry_count == 2
    assert faulted.now == pytest.approx(1.0 + plan.retry_policy.total_delay(2))
    assert clean.s3.retry_count == 0
    assert clean.s3.total_retry_delay_s == 0.0
    assert clean.now == 1.0
