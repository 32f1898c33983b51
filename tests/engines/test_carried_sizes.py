"""Sizes carried from where a result is made equal the re-derived ones.

Dask keeps each result's nominal bytes beside the result, Spark carries
a stage task's output size -- and, before a shuffle, each bucket's --
into its ``Partition``, and a Myria shard keeps a running byte total.
Each is checked here against ``nominal_bytes_of`` over the object it
describes, on small neuro and astro cells and on the fault path that
drops results.  A call count pins that a Spark shuffle sizes each
record once rather than every bucket once per reducer.
"""

import sys

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.cluster.disk import LocalDisk
from repro.cluster.faults import FaultPlan
from repro.engines import base
from repro.engines.base import nominal_bytes_of
from repro.engines.dask import DaskClient
from repro.engines.myria import MyriaConnection
from repro.engines.myria.relation import Schema
from repro.engines.myria.storage import WorkerStorage
from repro.engines.spark import SparkContext
from repro.engines.spark.rdd import WIDE_OPS
from repro.engines.spark.stage import SparkScheduler
from repro.formats.sizing import SizedArray
from repro.obs.spans import PSEUDO_OVERHEAD
from repro.pipelines.astro.staging import stage_visits
from repro.pipelines.neuro.staging import stage_subjects
from repro.plan import astro_plan, lower, neuro_plan


def check_dask_sizes(client):
    """Every held result has its size, and no purged one has."""
    assert client._result_bytes.keys() == client._results.keys()
    for key, value in client._results.items():
        assert client._result_bytes[key] == nominal_bytes_of(value)


@pytest.fixture
def checked_dask(monkeypatch):
    """Check the carried sizes after every barrier."""
    checks = []
    original = DaskClient.compute

    def checked(self, delayeds):
        out = original(self, delayeds)
        check_dask_sizes(self)
        checks.append(len(self._results))
        return out

    monkeypatch.setattr(DaskClient, "compute", checked)
    return checks


def test_dask_result_bytes_match_the_results_of_a_neuro_cell(
        checked_dask, tiny_subjects):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    client = DaskClient(cluster)
    stage_subjects(cluster.object_store, tiny_subjects)
    lower(neuro_plan(), "dask", client).run(tiny_subjects)
    assert checked_dask and max(checked_dask) > 0


def test_dask_purge_leaves_no_stale_size(checked_dask):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    client = DaskClient(cluster)
    volumes = [
        client.delayed(lambda i=i: SizedArray([1.0, 2.0],
                                              nominal_shape=(1000 * (i + 1),)),
                       workers=f"node-{i}", op=PSEUDO_OVERHEAD)()
        for i in range(4)
    ]
    doubled = [
        client.delayed(lambda v: v.with_array(2 * v.array), cost=lambda v: 1.0,
                       op=PSEUDO_OVERHEAD)(v)
        for v in volumes
    ]
    client.compute(doubled)
    # node-2 dies and comes back: what it held is purged at the next
    # barrier and recomputed.
    cluster.install_faults(
        FaultPlan(seed=6).crash_node("node-2", at_time=cluster.now + 0.005,
                                     restart_after=0.01)
    )
    client.compute([client.delayed(lambda: None, cost=lambda: 1.0,
                                   op=PSEUDO_OVERHEAD)()])
    client.compute(doubled)
    assert client.lost_futures > 0


@pytest.fixture
def checked_spark(monkeypatch):
    """Check every stage's partitions and every reducer's input sizes.

    A map-side partition's bucket totals must each equal its bucket's
    size; a reducer's ``memory_bytes`` and the bytes its ``read()``
    reports must equal the size of the records ``read()`` returns.
    Returns the ``(map partitions, reducers)`` shape of each shuffle.
    """
    shuffles = []
    run_stage = SparkScheduler._run_stage
    stage_task = SparkScheduler._stage_task

    def checked_stage(self, plan, upstream, shuffle_partitioner):
        partitions = run_stage(self, plan, upstream, shuffle_partitioner)
        for partition in partitions:
            assert partition.nominal_bytes == nominal_bytes_of(
                partition.records)
            if shuffle_partitioner is None:
                assert partition.bucket_bytes is None
                continue
            assert partition.bucket_bytes.keys() == partition.records.keys()
            for bucket, records in partition.records.items():
                assert partition.bucket_bytes[bucket] == nominal_bytes_of(
                    records)
        if plan.base.op in WIDE_OPS:
            shuffles.append((len(upstream), len(partitions)))
        return partitions

    def checked_task(self, plan, shuffle_partitioner, suffix, read,
                     combine=None, **placement):
        if combine is not None:  # a reducer
            records, in_bytes, _seconds = read()
            assert in_bytes == placement["memory_bytes"]
            assert in_bytes == nominal_bytes_of(records)
        return stage_task(self, plan, shuffle_partitioner, suffix, read,
                          combine=combine, **placement)

    monkeypatch.setattr(SparkScheduler, "_run_stage", checked_stage)
    monkeypatch.setattr(SparkScheduler, "_stage_task", checked_task)
    return shuffles


def test_spark_partition_bytes_match_their_records(
        checked_spark, tiny_subjects):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    sc = SparkContext(cluster)
    stage_subjects(cluster.object_store, tiny_subjects)
    lower(neuro_plan(), "spark", sc).run(
        tiny_subjects, input_partitions=16, cache_input=True
    )
    # A shuffle ran, so bucketed (map-side) and plain outputs were both
    # checked, and so were its reducers.
    assert checked_spark


def test_spark_partition_bytes_match_their_records_in_an_astro_cell(
        checked_spark, tiny_visits):
    # The benchmark's astro cells: 16 nodes and one input partition per
    # slot, so both grouping points shuffle into 128 reducers, and the
    # co-addition one out of 128 maps.
    cluster = SimulatedCluster(ClusterSpec(n_nodes=16))
    sc = SparkContext(cluster)
    stage_visits(cluster.object_store, tiny_visits)
    slots = cluster.spec.total_slots
    lower(astro_plan(), "spark", sc).run(tiny_visits, input_partitions=slots)
    assert [reducers for _maps, reducers in checked_spark] == [slots, slots]
    assert checked_spark[-1] == (slots, slots)


def _counted_sizing_calls(monkeypatch, records, n_partitions):
    """``nominal_bytes_of`` calls, recursive ones included, made by one
    ``groupByKey`` over ``records``; returns ``(calls, grouped)``."""
    calls = [0]
    original = base.nominal_bytes_of

    def counting(item):
        calls[0] += 1
        return original(item)

    # Rebind the name wherever it was imported, so calls from engine
    # modules and the recursion inside ``nominal_bytes_of`` both count.
    with monkeypatch.context() as patch:
        for module in list(sys.modules.values()):
            if getattr(module, "nominal_bytes_of", None) is original:
                patch.setattr(module, "nominal_bytes_of", counting)
        sc = SparkContext(SimulatedCluster(ClusterSpec(n_nodes=4)))
        grouped = (
            sc.parallelize(records, numSlices=n_partitions)
            .groupByKey(n_partitions)
            .collect()
        )
    return calls[0], dict(grouped)


def test_a_shuffle_sizes_each_record_once(monkeypatch):
    """Sizing work grows with the partitions, not reducers x maps.

    Before byte totals travelled with the buckets, every reducer sized
    every map's bucket for it, empty ones included: 32 -> 128
    partitions added some 15 000 calls here.  Each record is now sized
    once, as it is bucketed, so only a few calls per partition remain.
    """
    records = [(i % 97, i) for i in range(4096)]
    small, _ = _counted_sizing_calls(monkeypatch, records, 32)
    large, grouped = _counted_sizing_calls(monkeypatch, records, 128)
    assert large - small <= 4 * 128
    # A reducer reads the maps in partition order, each bucket in record
    # order: parallelize deals record i to partition i % 128.
    for key, values in grouped.items():
        assert values == sorted(
            (i for i in range(4096) if i % 97 == key),
            key=lambda i: (i % 128, i),
        )


def test_myria_shard_bytes_are_the_sum_of_its_rows():
    disk = LocalDisk("node-0", 10 ** 12)
    storage = WorkerStorage(0, "node-0", disk)
    storage.create_table("T", Schema(("id", "img")))
    inserted = []
    for batch in range(3):
        rows = [(batch * 10 + i, SizedArray([0.0], nominal_shape=(100 + i,)))
                for i in range(batch + 1)]
        inserted.extend(rows)
        n_rows, nbytes = storage.insert_rows("T", rows)
        assert (n_rows, nbytes) == (len(rows), nominal_bytes_of(rows))
    assert disk.size_of("myria/worker0/T") == sum(
        nominal_bytes_of(row) for row in inserted)
    assert storage.shard_bytes("T") == nominal_bytes_of(inserted)


def test_myria_shards_of_a_neuro_cell_keep_their_byte_totals(
        monkeypatch, tiny_subjects):
    original = WorkerStorage.insert_rows
    inserts = []

    def checked(self, name, rows):
        out = original(self, name, rows)
        assert self.shard_bytes(name) == nominal_bytes_of(
            self._tables[name][1])
        inserts.append(name)
        return out

    monkeypatch.setattr(WorkerStorage, "insert_rows", checked)
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
    )
    conn = MyriaConnection(cluster)
    stage_subjects(cluster.object_store, tiny_subjects)
    lower(neuro_plan(), "myria", conn).run(tiny_subjects, source="ingested")
    assert inserts
