"""Sizes carried from where a result is made equal the re-derived ones.

Dask keeps each result's nominal bytes beside the result, Spark carries
a stage task's output size into its ``Partition``, and a Myria shard
keeps a running byte total.  Each is checked here against
``nominal_bytes_of`` over the object it describes, on small neuro cells
and on the fault path that drops results.
"""

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.cluster.disk import LocalDisk
from repro.cluster.faults import FaultPlan
from repro.engines.base import nominal_bytes_of
from repro.engines.dask import DaskClient
from repro.engines.myria import MyriaConnection
from repro.engines.myria.relation import Schema
from repro.engines.myria.storage import WorkerStorage
from repro.engines.spark import SparkContext
from repro.engines.spark.stage import SparkScheduler
from repro.formats.sizing import SizedArray
from repro.pipelines.neuro.staging import stage_subjects
from repro.plan import lower, neuro_plan


def check_dask_sizes(client):
    """Every held result has its size, and no released one has."""
    assert client._result_bytes.keys() == client._results.keys()
    for key, value in client._results.items():
        assert client._result_bytes[key] == nominal_bytes_of(value)


@pytest.fixture
def checked_dask(monkeypatch):
    """Check the carried sizes after every barrier and every release."""
    checks = []
    for name in ("compute", "release"):
        original = getattr(DaskClient, name)

        def checked(self, delayeds, _original=original):
            out = _original(self, delayeds)
            check_dask_sizes(self)
            checks.append(len(self._results))
            return out

        monkeypatch.setattr(DaskClient, name, checked)
    return checks


def test_dask_result_bytes_match_the_results_of_a_neuro_cell(
        checked_dask, tiny_subjects):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    client = DaskClient(cluster)
    stage_subjects(cluster.object_store, tiny_subjects)
    lower(neuro_plan(), "dask", client).run(tiny_subjects)
    assert checked_dask and max(checked_dask) > 0


def test_dask_purge_and_release_leave_no_stale_size(checked_dask):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    client = DaskClient(cluster)
    volumes = client.scatter(
        [SizedArray([1.0, 2.0], nominal_shape=(1000 * (i + 1),))
         for i in range(4)]
    )
    doubled = [
        client.delayed(lambda v: v.map(lambda a: 2 * a), cost=lambda v: 1.0)(v)
        for v in volumes
    ]
    client.compute(doubled)
    # node-2 dies and comes back: what it held is purged at the next
    # barrier and recomputed.
    cluster.install_faults(
        FaultPlan(seed=6).crash_node("node-2", at_time=cluster.now + 0.005,
                                     restart_after=0.01)
    )
    unrelated = client.delayed(lambda: None, cost=lambda: 1.0)()
    unrelated.result()
    client.compute(doubled)
    assert client.lost_futures > 0
    client.release(doubled + volumes + [unrelated])
    assert not client._result_bytes


def test_spark_partition_bytes_match_their_records(monkeypatch, tiny_subjects):
    original = SparkScheduler._run_stage
    stages = []

    def checked(self, plan, upstream, shuffle_partitioner):
        partitions = original(self, plan, upstream, shuffle_partitioner)
        for partition in partitions:
            assert partition.nominal_bytes == nominal_bytes_of(
                partition.records)
        stages.append(shuffle_partitioner is not None)
        return partitions

    monkeypatch.setattr(SparkScheduler, "_run_stage", checked)
    cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    sc = SparkContext(cluster)
    stage_subjects(cluster.object_store, tiny_subjects)
    lower(neuro_plan(), "spark", sc).run(
        tiny_subjects, input_partitions=16, cache_input=True
    )
    # Bucketed (pre-shuffle) outputs and plain ones were both checked.
    assert True in stages and False in stages


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
