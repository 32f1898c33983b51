"""Scaling guard: host time of the simulator grows linearly with tasks.

Two inputs used to cost O(tasks^2) host time: a run whose tasks are
all ready at once but cannot start (pinned to a busy node, or behind a
``not_before`` floor -- miniDask's dispatch model), because every event
rescanned every ready task; and a critical-path walk over records with
no binding dependency (TensorFlow's master-mediated steps), because
every handover rescanned every record.  Each case is timed at N and at
4N tasks in this process, alternately, keeping the fastest run of each,
so host speed cancels out of the ratio (bench/README.md, "Estimator").
Linear work gives 4, quadratic 16; the bound sits between.

A third case holds the task count and grows the cluster: an event used
to rebuild the usable nodes and re-sum their free slots, so the same
pinned run cost O(nodes) more per event on a bigger cluster.  The run
keeps both across events now; 16x the nodes must cost well under 2x.
The same holds when every node is oversubscribed: 4 096 tasks pinned
round-robin over all the nodes.  An event used to ask every pin with a
queued task whether its node had a free slot, O(nodes) per event once
every node has a queue; the ready set now keeps the open pins, which it
is told of as slots fill and free.

A fourth case is a Spark shuffle.  Every reducer of a ``groupByKey``
depends on every map, and each used to carry its own tuple of the M
maps, which the executor walked once per reducer: O(reducers x maps)
host time.  The reducers now share one ``Upstream``, walked once per
run.  The same 128-partition shuffle is timed against a kept reference
in which each reducer gets its own list of the maps (``_own_maps``),
alternately in this process, so the ratio is of two forms of one run
and host speed cancels out of it.

A fifth case stages one cohort for many clusters.  Every trial used to
put the whole cohort into a store of its own, so staging 16 clusters
cost 16x staging one.  The cohort's store is now built once per process,
frozen, and each cluster mounts it: one dict update per bucket.
"""

import gc
import time

import pytest

import repro.cluster.objectstore as objectstore
import repro.engines.spark.stage as spark_stage
from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.cluster.task import Upstream
from repro.engines.spark import SparkContext
from repro.harness.runner import neuro_subjects
from repro.obs import compute_critical_path
from repro.obs.spans import PSEUDO_OVERHEAD, TaskRecord
from repro.pipelines.neuro.staging import stage_subjects

GROWTH = 4
BOUND = 6.0
#: 16 -> 256 nodes at a fixed task count.  Measured on a shared 2-core
#: host: about 2.5-3.4x when every event rescanned the nodes, 0.7-1.0x
#: with the node state carried across events.
NODE_GROWTH = 16
NODE_BOUND = 1.75
#: The same growth and bound with every node oversubscribed.  Measured
#: on a shared 2-core host: 2.3-2.4x when an event asked every queued
#: pin whether its node could act, 0.9-1.3x with the open pins kept as
#: slots fill and free.
#: 128 partitions over 1 024 records, best of 15 with the collector off,
#: the shared ``Upstream`` over the per-reducer reference.  Measured on a
#: shared 2-core host: 0.53-0.64 over 20 full-module runs; 0.99-1.28 with
#: the reference on both sides, and 0.91-1.04 with the sharing reverted
#: in ``stage.py`` (each reducer given its own list of the maps).
SHUFFLE_PARTITIONS = 128
SHUFFLE_BOUND = 0.8
#: 1 -> 16 clusters staged from the steps-sim cohort (8 subjects x 144
#: volumes), best of 7 with the collector off.  Measured on a shared
#: 2-core host: 16.5-17.6x when every cluster put every volume,
#: 1.3-1.5x with the staged store built once and mounted.
STAGED_CLUSTERS = 16
STAGE_BOUND = 3.0


def _best_of(rounds, *cases):
    best = [float("inf")] * len(cases)
    for _ in range(rounds):
        for index, case in enumerate(cases):
            timed = case()
            start = time.perf_counter()
            timed()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def _staggered_pinned_run(n_tasks, n_nodes=16):
    """Set up outside the timed region; returns the call to time."""
    cluster = SimulatedCluster(ClusterSpec(n_nodes=n_nodes))
    names = cluster.node_order[:16]
    # One dispatch every 10 ms of 2 s tasks wants 200 slots of the 128
    # on the first 16 nodes: sleepers and tasks queued on their busy
    # node, both in the hundreds.
    tasks = [
        Task(f"t{i}", duration=2.0, node=names[i % len(names)],
             not_before=i * 0.01, op=PSEUDO_OVERHEAD)
        for i in range(n_tasks)
    ]
    return lambda: cluster.run(tasks)


def _round_robin_pinned_run(n_nodes, n_tasks=4096):
    """Every node of the cluster gets ``n_tasks / n_nodes`` pinned tasks,
    all ready at once: far more than its slots, whatever the size."""
    cluster = SimulatedCluster(ClusterSpec(n_nodes=n_nodes))
    names = cluster.node_order
    tasks = [
        Task(f"t{i}", duration=2.0, node=names[i % len(names)], op=PSEUDO_OVERHEAD)
        for i in range(n_tasks)
    ]
    return lambda: cluster.run(tasks)


def _group_by_key(n_partitions, n_records=1024):
    """One shuffle of a fixed record list into ``n_partitions``.

    Timed with the collector off: a run lasts milliseconds, and one
    collection of the test process's heap falling inside it would
    outweigh the difference the bound looks for.
    """
    sc = SparkContext(SimulatedCluster(ClusterSpec(n_nodes=4)))
    records = [(i % 97, i) for i in range(n_records)]
    grouped = sc.parallelize(records, numSlices=n_partitions).groupByKey(
        n_partitions)

    def collect():
        gc.disable()
        try:
            grouped.collect()
        finally:
            gc.enable()

    return collect


def _own_maps(n_partitions):
    """The kept reference: ``_group_by_key`` with each reducer given its
    own list of the maps, the R x M shape the executor walked before the
    reducers shared one ``Upstream``."""
    collect = _group_by_key(n_partitions)

    def reference():
        spark_stage.Upstream = list
        try:
            collect()
        finally:
            spark_stage.Upstream = Upstream

    return reference


def _staged_clusters(monkeypatch, cohort, n_clusters):
    """Stage ``cohort`` into ``n_clusters`` fresh clusters, starting
    from an empty process memo; the clusters are built untimed."""
    monkeypatch.setattr(objectstore, "_STAGED", {})
    clusters = [SimulatedCluster(ClusterSpec(n_nodes=16))
                for _ in range(n_clusters)]

    def stage():
        gc.disable()
        try:
            for cluster in clusters:
                stage_subjects(cluster.object_store, cohort)
        finally:
            gc.enable()

    return stage


def _dependency_free_walk(n_records):
    # Abutting coordinator charges with a straggler every tenth step:
    # every step of the walk is a handover.
    records = [
        TaskRecord(f"step-{i}", "node-0", float(i),
                   i + (3.5 if i % 10 == 0 else 1.0), op=PSEUDO_OVERHEAD)
        for i in range(n_records)
    ]
    return lambda: compute_critical_path(records)


@pytest.mark.parametrize(
    "case, small, rounds",
    [
        (_staggered_pinned_run, 600, 3),
        (_dependency_free_walk, 600, 5),
    ],
)
def test_host_time_grows_linearly_with_tasks(case, small, rounds):
    small_s, large_s = _best_of(
        rounds,
        lambda: case(small),
        lambda: case(GROWTH * small),
    )
    print(f"{case.__name__}: {small} -> {GROWTH * small} tasks, "
          f"{small_s * 1e3:.1f} ms -> {large_s * 1e3:.1f} ms "
          f"= {large_s / small_s:.1f}x (bound {BOUND}x)")
    assert large_s <= BOUND * small_s


def test_host_time_is_flat_in_the_node_count():
    n_tasks, nodes = 2400, 16
    small_s, large_s = _best_of(
        5,
        lambda: _staggered_pinned_run(n_tasks, nodes),
        lambda: _staggered_pinned_run(n_tasks, NODE_GROWTH * nodes),
    )
    print(f"_staggered_pinned_run: {nodes} -> {NODE_GROWTH * nodes} nodes, "
          f"{small_s * 1e3:.1f} ms -> {large_s * 1e3:.1f} ms "
          f"= {large_s / small_s:.2f}x (bound {NODE_BOUND}x)")
    assert large_s <= NODE_BOUND * small_s


def test_host_time_is_flat_in_the_node_count_when_all_are_oversubscribed():
    nodes = 16
    small_s, large_s = _best_of(
        5,
        lambda: _round_robin_pinned_run(nodes),
        lambda: _round_robin_pinned_run(NODE_GROWTH * nodes),
    )
    print(f"_round_robin_pinned_run: {nodes} -> {NODE_GROWTH * nodes} nodes, "
          f"{small_s * 1e3:.1f} ms -> {large_s * 1e3:.1f} ms "
          f"= {large_s / small_s:.2f}x (bound {NODE_BOUND}x)")
    assert large_s <= NODE_BOUND * small_s


def test_shuffle_host_time_is_not_reducers_times_maps():
    shared_s, own_s = _best_of(
        15, lambda: _group_by_key(SHUFFLE_PARTITIONS),
        lambda: _own_maps(SHUFFLE_PARTITIONS),
    )
    print(f"_group_by_key at {SHUFFLE_PARTITIONS} partitions: shared maps "
          f"{shared_s * 1e3:.1f} ms / own maps {own_s * 1e3:.1f} ms "
          f"= {shared_s / own_s:.2f} (bound {SHUFFLE_BOUND})")
    assert shared_s <= SHUFFLE_BOUND * own_s


def test_staging_a_cohort_for_many_clusters_builds_it_once(monkeypatch):
    cohort = neuro_subjects(8, scale=40, n_volumes=144)
    one_s, many_s = _best_of(
        7,
        lambda: _staged_clusters(monkeypatch, cohort, 1),
        lambda: _staged_clusters(monkeypatch, cohort, STAGED_CLUSTERS),
    )
    print(f"_staged_clusters: 1 -> {STAGED_CLUSTERS} clusters, "
          f"{one_s * 1e3:.2f} ms -> {many_s * 1e3:.2f} ms "
          f"= {many_s / one_s:.2f}x (bound {STAGE_BOUND}x)")
    assert many_s <= STAGE_BOUND * one_s
