"""Tests for Spark's stage planner (lineage cutting)."""

import pytest

from repro.engines.base import udf
from repro.engines.spark import SparkContext
from repro.engines.spark.stage import _StagePlan


@pytest.fixture
def sc(small_cluster):
    return SparkContext(small_cluster)


def _plan(sc, rdd):
    return sc.scheduler._plan_stages(rdd)


def test_narrow_chain_is_one_stage(sc):
    rdd = (
        sc.parallelize(range(4), numSlices=2)
        .map(udf(lambda x: x))
        .filter(udf(lambda x: True))
        .map(udf(lambda x: x))
    )
    plans = _plan(sc, rdd)
    assert len(plans) == 1
    assert len(plans[0].narrow_ops) == 3


def test_wide_op_cuts_stage(sc):
    rdd = (
        sc.parallelize([(1, 2)], numSlices=2)
        .map(udf(lambda kv: kv))
        .groupByKey(2)
        .map(udf(lambda kv: kv))
    )
    plans = _plan(sc, rdd)
    assert len(plans) == 2
    assert plans[1].base.op == "groupByKey"
    assert len(plans[1].narrow_ops) == 1


def test_two_shuffles_three_stages(sc):
    rdd = (
        sc.parallelize([(1, 2)], numSlices=2)
        .groupByKey(2)
        .map(udf(lambda kv: (kv[0], sum(kv[1]))))
        .groupByKey(2)
    )
    plans = _plan(sc, rdd)
    assert len(plans) == 3


def test_cached_node_is_materialization_point(sc):
    base = sc.parallelize(range(4), numSlices=2).cache()
    rdd = base.map(udf(lambda x: x + 1))
    plans = _plan(sc, rdd)
    # Stage 1 ends at the cached node; stage 2 maps over the cache.
    assert len(plans) == 2
    assert plans[0].result_rdd is base
    assert plans[1].base is base


def test_cache_hit_short_circuits_lineage(sc):
    base = sc.parallelize(range(4), numSlices=2).cache()
    base.persist_to_workers()  # materializes and stores the cache
    plans = _plan(sc, base.map(udf(lambda x: x)))
    assert len(plans) == 1
    assert plans[0].base is base  # reads from cache, no parallelize


def test_recount_of_cached_rdd_single_cheap_stage(sc):
    base = sc.parallelize(range(4), numSlices=2).cache()
    base.persist_to_workers()
    plans = _plan(sc, base)
    assert len(plans) == 1
    assert plans[0].narrow_ops == []


def test_mid_chain_cache(sc):
    mapped = sc.parallelize(range(4), numSlices=2).map(udf(lambda x: x)).cache()
    final = mapped.filter(udf(lambda x: True))
    plans = _plan(sc, final)
    assert len(plans) == 2
    assert plans[0].result_rdd is mapped


def test_cached_results_correct_after_recompute(sc):
    base = sc.parallelize(list(range(10)), numSlices=4).cache()
    doubled = base.map(udf(lambda x: 2 * x))
    assert sorted(doubled.collect()) == [2 * x for x in range(10)]
    # Second derived action reads the cache and stays correct.
    tripled = base.map(udf(lambda x: 3 * x))
    assert sorted(tripled.collect()) == [3 * x for x in range(10)]


def _records():
    return [(i % 3, float(i)) for i in range(12)]


def test_a_cached_rdd_feeding_a_shuffle_collects_twice(sc):
    """The second action plans a stage over the cache before the
    shuffle; it used to plan none and fail with a TypeError."""
    grouped = sc.parallelize(_records(), numSlices=4).cache().groupByKey(3)
    first = grouped.collect()
    assert grouped.collect() == first
    assert sorted(key for key, _values in first) == [0, 1, 2]


def test_a_cache_filled_before_a_shuffle_holds_the_records(sc):
    """The cache keeps each partition's records in order, not the
    buckets its stage wrote for the shuffle, so other actions on it
    see what a fresh computation gives."""
    fresh = sc.parallelize(_records(), numSlices=4)
    base = sc.parallelize(_records(), numSlices=4).cache()
    base.groupByKey(3).collect()  # fills the cache in a bucketing stage
    assert base.collect() == fresh.collect()
    assert (base.groupByKey(2).collect()
            == fresh.groupByKey(2).collect())
    double = udf(lambda kv: (kv[0], 2 * kv[1]))
    assert base.map(double).collect() == fresh.map(double).collect()
