"""Tests for miniSpark."""

import numpy as np
import pytest

from repro.engines.base import udf
from repro.engines.spark import SparkContext
from repro.engines.spark.partitioner import HashPartitioner, stable_hash
from repro.formats.sizing import SizedArray
from repro.obs.spans import PSEUDO_OVERHEAD


@pytest.fixture
def sc(small_cluster):
    return SparkContext(small_cluster)


def test_parallelize_collect_roundtrip(sc):
    data = list(range(50))
    assert sorted(sc.parallelize(data, numSlices=7).collect()) == data


def test_map_filter_chain(sc):
    rdd = sc.parallelize(range(20), numSlices=4)
    out = rdd.map(udf(lambda x: x * 2)).filter(udf(lambda x: x % 3 == 0)).collect()
    assert sorted(out) == [x * 2 for x in range(20) if (x * 2) % 3 == 0]


def test_flatmap(sc):
    rdd = sc.parallelize([1, 2, 3], numSlices=2)
    out = rdd.flatMap(udf(lambda x: [x] * x)).collect()
    assert sorted(out) == [1, 2, 2, 3, 3, 3]


def test_groupbykey_completeness(sc):
    pairs = [(i % 4, i) for i in range(40)]
    grouped = dict(sc.parallelize(pairs, numSlices=8).groupByKey(4).collect())
    for key in range(4):
        assert sorted(grouped[key]) == [i for i in range(40) if i % 4 == key]


def test_groupby_keyfn(sc):
    out = dict(
        sc.parallelize(range(10), numSlices=4)
        .groupBy(udf(lambda x: x % 2), numPartitions=2)
        .collect()
    )
    assert sorted(out[0]) == [0, 2, 4, 6, 8]


def test_reducebykey(sc):
    pairs = [(i % 3, 1) for i in range(30)]
    out = dict(
        sc.parallelize(pairs, numSlices=6)
        .reduceByKey(udf(lambda a, b: a + b), numPartitions=3)
        .collect()
    )
    assert out == {0: 10, 1: 10, 2: 10}


def test_mapvalues(sc):
    out = dict(
        sc.parallelize([(1, 2), (3, 4)], numSlices=2)
        .mapValues(udf(lambda v: v * 10))
        .collect()
    )
    assert out == {1: 20, 3: 40}


def test_count(sc):
    assert sc.parallelize(range(17), numSlices=5).count() == 17


def test_stage_count_narrow_fused(sc):
    """Narrow chains execute as one stage; a shuffle adds one more."""
    rdd = sc.parallelize(range(10), numSlices=2)
    chained = rdd.map(udf(lambda x: (x % 2, x))).groupByKey(2)
    before = sc.scheduler.stages_run
    chained.collect()
    assert sc.scheduler.stages_run - before == 2


def test_group_by_key_makes_num_partitions_partitions(sc):
    rdd = sc.parallelize([(i, i) for i in range(16)], numSlices=2)
    grouped = rdd.groupByKey(numPartitions=8)
    parts = grouped.persist_to_workers()
    assert len(parts) == 8


def test_s3_source_reads_objects(sc):
    store = sc.cluster.object_store
    for i in range(10):
        store.put("b", f"obj{i}", i, 1000)
    rdd = sc.s3_objects("b", numPartitions=5)
    assert sorted(rdd.collect()) == list(range(10))


def test_s3_default_partitions_like_hdfs_blocks(sc):
    """Unspecified partitioning gives few, large partitions
    (Section 5.3.1: only 4 partitions for one ~4 GB subject)."""
    store = sc.cluster.object_store
    for i in range(288):
        store.put("b", f"vol{i:03d}", i, 4_200_000_000 // 288)
    rdd = sc.s3_objects("b")
    assert rdd.num_partitions <= 4


def test_s3_missing_bucket_raises(sc):
    with pytest.raises(ValueError):
        sc.s3_objects("empty-bucket")


def test_broadcast_value_accessible(sc):
    b = sc.broadcast({"mask": 1}, nominal_bytes=1000, op=PSEUDO_OVERHEAD)
    assert b.value == {"mask": 1}


def test_cache_avoids_recompute_cost(sc):
    store = sc.cluster.object_store
    for i in range(8):
        store.put("b", f"o{i}", i, 10_000_000)
    base = sc.s3_objects("b", numPartitions=8).cache()
    base.count()
    t1 = sc.cluster.now
    base.count()
    second_action = sc.cluster.now - t1
    assert second_action < t1 * 0.5


def test_uncached_rdd_recomputes(sc):
    store = sc.cluster.object_store
    for i in range(8):
        store.put("b", f"o{i}", i, 10_000_000)
    base = sc.s3_objects("b", numPartitions=8)
    base.count()  # warm-up (includes job startup)
    t1 = sc.cluster.now
    base.count()
    second_action = sc.cluster.now - t1
    t2 = sc.cluster.now
    base.count()
    third_action = sc.cluster.now - t2
    # Without caching every action re-reads S3: repeat cost is stable
    # and non-trivial.
    assert second_action == pytest.approx(third_action, rel=0.01)
    assert second_action > 0.1


def test_costed_udf_charges_time(sc):
    sc.ensure_started()  # exclude the one-time job startup
    items = [SizedArray(np.zeros(4), nominal_shape=(10**7,)) for _ in range(8)]
    rdd = sc.parallelize(items, numSlices=8)
    cheap = rdd.map(udf(lambda x: x))
    t0 = sc.cluster.now
    cheap.persist_to_workers()
    cheap_time = sc.cluster.now - t0
    heavy = rdd.map(udf(lambda x: x, cost=lambda x: 5.0))
    t0 = sc.cluster.now
    heavy.persist_to_workers()
    heavy_time = sc.cluster.now - t0
    assert heavy_time > cheap_time + 4.0


def test_more_partitions_parallelize_better(sc):
    items = [SizedArray(np.zeros(4), nominal_shape=(10**6,)) for _ in range(32)]
    work = udf(lambda x: x, cost=lambda x: 1.0)

    def timed(slices):
        ctx = SparkContext(type(sc.cluster)(sc.cluster.spec))
        rdd = ctx.parallelize(items, numSlices=slices).map(work)
        t0 = ctx.cluster.now
        rdd.persist_to_workers()
        return ctx.cluster.now - t0

    assert timed(32) < timed(1)


def test_stable_hash_deterministic_types():
    assert stable_hash("abc") == stable_hash("abc")
    assert stable_hash(("s", 1)) == stable_hash(("s", 1))
    assert stable_hash(7) == 7
    with pytest.raises(TypeError):
        stable_hash([1, 2])


def test_hash_partitioner():
    p = HashPartitioner(4)
    assert all(0 <= p.partition_for(("subj", i)) < 4 for i in range(100))
    assert p == HashPartitioner(4)
    with pytest.raises(ValueError):
        HashPartitioner(0)


def test_spill_on_oversized_partition(sc):
    """A partition larger than node memory spills instead of failing."""
    huge = SizedArray(np.zeros(4), nominal_shape=(9 * 10**9,))  # 72 GB
    rdd = sc.parallelize([huge], numSlices=1).map(udf(lambda x: x))
    parts = rdd.persist_to_workers()
    assert len(parts) == 1  # completed despite exceeding 61 GB memory


def test_take_and_first(sc):
    rdd = sc.parallelize(range(100), numSlices=8)
    taken = rdd.take(5)
    assert len(taken) == 5
    assert all(t in range(100) for t in taken)
    assert rdd.first() in range(100)


def test_take_more_than_available(sc):
    assert sorted(sc.parallelize([1, 2], numSlices=2).take(10)) == [1, 2]
    assert sc.parallelize([1], numSlices=1).take(0) == []


def test_first_empty_raises(sc):
    import pytest as _pytest

    empty = sc.parallelize([1], numSlices=1).filter(udf(lambda x: False))
    with _pytest.raises(ValueError):
        empty.first()


def test_distinct(sc):
    rdd = sc.parallelize([1, 2, 2, 3, 3, 3], numSlices=3)
    assert sorted(rdd.distinct(numPartitions=2).collect()) == [1, 2, 3]
