"""Property-based tests: executor and substrate invariants."""

from collections import Counter
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.cluster.errors import ClusterError, OutOfMemoryError
from repro.cluster.faults import FaultPlan, RetryPolicy, spark_recovery
from repro.cluster.memory import MemoryTracker
from repro.cluster.run import Run
from repro.engines.spark.partitioner import HashPartitioner, stable_hash
from repro.obs.spans import PSEUDO_OVERHEAD
from tests.cluster.test_ready_set import (
    placements,
    reference_schedule,
    make_cluster,
)


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_makespan_bounds(durations):
    """Makespan lies between max task time and serial sum, and respects
    the slot-capacity lower bound."""
    cluster = SimulatedCluster(ClusterSpec(n_nodes=2))
    tasks = [Task(f"t{i}", duration=d,
                  op=PSEUDO_OVERHEAD) for i, d in enumerate(durations)]
    cluster.run(tasks)
    total = sum(durations)
    longest = max(durations)
    slots = cluster.spec.total_slots
    assert cluster.now <= total + 1e-9
    assert cluster.now >= longest - 1e-9
    assert cluster.now >= total / slots - 1e-9


@given(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_chain_is_serial(durations):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    previous = None
    for i, d in enumerate(durations):
        deps = [previous] if previous is not None else []
        previous = Task(f"t{i}", duration=d, deps=deps, op=PSEUDO_OVERHEAD)
    cluster.run([previous])
    assert abs(cluster.now - sum(durations)) < 1e-9


@given(
    st.lists(st.integers(1, 100), min_size=1, max_size=30),
    st.integers(100, 10_000),
    st.sampled_from(["free", "free_all", "wipe"]),
    st.lists(st.integers(1, 100), max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_memory_tracker_conserves(sizes, capacity, release, after):
    """used + available == capacity at every step; OOM exactly when the
    request exceeds what is available; the step history sums to the
    level after every step and peaks where the tracker says it did.
    Half the allocations are freed one by one, the rest by ``free``,
    by ``free_all`` or by a ``wipe`` (a crash, after which a late free
    is a no-op); then the tracker allocates afresh."""
    tracker = MemoryTracker("n", capacity)

    def level():
        return sum(delta for _time, delta in tracker.history)

    def check():
        assert tracker.used_bytes + tracker.available_bytes == capacity
        assert level() == tracker.used_bytes

    def allocate_all(sizes):
        allocations = []
        for size in sizes:
            if size <= tracker.available_bytes:
                allocations.append(tracker.allocate(size))
            else:
                with pytest.raises(OutOfMemoryError):
                    tracker.allocate(size)
            check()
        return allocations

    allocations = allocate_all(sizes)
    for alloc in allocations[1::2]:
        tracker.free(alloc)
        check()
    kept = allocations[::2]
    if release == "free":
        for alloc in kept:
            tracker.free(alloc)
            check()
        assert len(tracker.history) == 2 * len(allocations)
    elif release == "free_all":
        tracker.free_all()
        check()
    else:
        lost = tracker.used_bytes
        assert tracker.wipe() == lost
        check()
        for alloc in kept:
            tracker.free(alloc)
        check()
    assert tracker.used_bytes == 0
    for alloc in allocate_all(after):
        tracker.free(alloc)
        check()
    assert tracker.used_bytes == 0
    levels = accumulate(delta for _time, delta in tracker.history)
    assert max(levels, default=0) == tracker.peak_bytes
    assert all(time == 0.0 for time, _delta in tracker.history)


def test_a_task_leaves_one_allocate_free_pair_on_its_node():
    cluster = SimulatedCluster(ClusterSpec(n_nodes=2))
    cluster.charge_master(3.0, op=PSEUDO_OVERHEAD)
    mb64 = 64 * 1024 ** 2
    (result,) = cluster.run(
        [Task("big", duration=1.5, memory_bytes=mb64, node="node-1",
              op=PSEUDO_OVERHEAD)]
    ).values()
    assert cluster.node("node-1").memory.history == [
        (result.start_time, mb64), (result.end_time, -mb64)]
    assert (result.start_time, result.end_time) == (3.0, 4.5)
    assert cluster.node("node-1").memory.peak_bytes == mb64
    assert cluster.node("node-0").memory.history == []
    cluster.reset_clock()
    assert cluster.node("node-1").memory.history == []


@given(st.lists(st.integers(0, 2 ** 62), min_size=1, max_size=50),
       st.integers(1, 64))
@settings(max_examples=50, deadline=None)
def test_hash_partitioner_in_range_and_deterministic(keys, parts):
    partitioner = HashPartitioner(parts)
    for key in keys:
        bucket = partitioner.partition_for(key)
        assert 0 <= bucket < parts
        assert bucket == partitioner.partition_for(key)


@given(st.text(max_size=30))
@settings(max_examples=50, deadline=None)
def test_stable_hash_strings_deterministic(text):
    assert stable_hash(text) == stable_hash(text)
    assert 0 <= stable_hash(text) < 2 ** 64


@given(st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 5.0)),
                min_size=1, max_size=15))
@settings(max_examples=30, deadline=None)
def test_not_before_respected(specs):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=2))
    tasks = [
        Task(f"t{i}", duration=d, not_before=nb, op=PSEUDO_OVERHEAD)
        for i, (d, nb) in enumerate(specs)
    ]
    results = cluster.run(tasks)
    for task, (d, nb) in zip(tasks, specs):
        assert results[task.task_id].start_time >= nb - 1e-9


@given(st.integers(1, 8), st.integers(1, 64))
@settings(max_examples=30, deadline=None)
def test_slot_throughput(n_nodes, n_tasks):
    """n identical unit tasks finish in ceil(n / slots) waves."""
    cluster = SimulatedCluster(ClusterSpec(n_nodes=n_nodes))
    tasks = [Task(f"t{i}", duration=1.0, op=PSEUDO_OVERHEAD) for i in range(n_tasks)]
    cluster.run(tasks)
    waves = -(-n_tasks // cluster.spec.total_slots)
    assert abs(cluster.now - waves) < 1e-9


@st.composite
def mixed_workloads(draw, oom_policies=("wait",), output_bytes=(0,)):
    """A small cluster and a DAG mixing every reason a ready task waits:
    a busy pinned node, no slot anywhere, a ``not_before`` floor, and
    memory admission under ``on_oom="wait"``."""
    n_nodes = draw(st.integers(1, 4))
    slots = draw(st.integers(1, 3))
    memory_bytes = 100
    tasks = []
    for index in range(draw(st.integers(1, 24))):
        dep_indexes = draw(
            st.sets(st.integers(0, index - 1), max_size=min(index, 2))
        ) if index else set()
        tasks.append(Task(
            f"t{index}",
            duration=draw(st.floats(0.0, 5.0)),
            node=draw(st.one_of(
                st.none(),
                st.integers(0, n_nodes - 1).map(lambda i: f"node-{i}"),
            )),
            deps=[tasks[i] for i in sorted(dep_indexes)],
            not_before=draw(st.one_of(st.just(0.0), st.floats(0.0, 8.0))),
            memory_bytes=draw(st.sampled_from((0, 0, 40, 70, memory_bytes))),
            on_oom=draw(st.sampled_from(oom_policies)),
            output_bytes=draw(st.sampled_from(output_bytes)), op=PSEUDO_OVERHEAD,
        ))
    return n_nodes, slots, memory_bytes, tasks


@given(mixed_workloads())
@settings(max_examples=150, deadline=None)
def test_schedule_equals_the_rescanning_reference(workload):
    """Every (task, node, start, end) is exactly what a scheduler that
    rescans all unstarted tasks in id order after every event decides."""
    n_nodes, slots, memory_bytes, tasks = workload
    cluster = make_cluster(n_nodes, slots, memory_bytes)
    got = placements(cluster.run(tasks))
    assert got == reference_schedule(tasks, n_nodes, slots, memory_bytes)


# ----------------------------------------------------------------------
# What ``obs.task_records`` says about a run
# ----------------------------------------------------------------------

recorded_workloads = mixed_workloads(
    oom_policies=("wait", "spill"), output_bytes=(0, 10 ** 8)
)


def check_records(cluster, tasks, results=None, charges=0):
    """The contract of ``obs.task_records``, clean run or not.

    One record per completion, filed in completion order, and one
    id-less record per master charge and per attempt that died; a filed
    record's history is ordered, its extent is exactly its
    transfer/compute/spill split, and its ``dep_ids`` are the task's.
    ``results`` is what the ``run()`` calls returned, in call order,
    when none of them raised.
    """
    records = cluster.obs.task_records
    by_id = {task.task_id: task for task in tasks}
    filed = [r for r in records if r.task_id is not None]
    if results is not None:
        assert [r.task_id for r in filed] == [x.task.task_id for x in results]
    ends = [r.end for r in filed]
    assert ends == sorted(ends)
    last = {r.task_id: r for r in filed}
    for task_id, result in cluster.completed.items():
        r = last[task_id]
        assert (r.name, r.node, r.start, r.end) == (
            result.task.name, result.node, result.start_time, result.end_time)
    for r in filed:
        task = by_id[r.task_id]
        assert r.name == task.name
        assert r.queued <= r.ready <= r.start <= r.end
        assert r.start >= r.not_before == task.not_before
        assert r.transfer_s + r.compute_s + r.spill_s == pytest.approx(
            r.end - r.start, abs=1e-9)
        assert r.dep_ids == tuple(d.task_id for d in task.dependencies())
    # An attempt that died left its extent behind, on its node; nothing
    # still holds a slot.
    anonymous = Counter(r.node for r in records if r.task_id is None)
    anonymous[cluster.master] -= charges
    for node in cluster.nodes.values():
        assert anonymous[node.name] == node.failed_tasks
        assert node.busy_slots == 0
    assert all(r.start <= r.end for r in records)


@given(recorded_workloads, st.data())
@settings(max_examples=100, deadline=None)
def test_every_finished_task_has_one_record_of_its_history(workload, data):
    """Two submissions with a master charge between them: the second
    admits tasks whose dependencies are all done already."""
    n_nodes, slots, memory_bytes, tasks = workload
    cluster = make_cluster(n_nodes, slots, memory_bytes)
    first = cluster.run(tasks[:data.draw(st.integers(0, len(tasks)))])
    cluster.charge_master(1.5, category="driver", op=PSEUDO_OVERHEAD)
    second = cluster.run(tasks)
    results = [*first.values(), *second.values()]
    check_records(cluster, tasks, results, charges=1)
    assert len(cluster.obs.task_records) == len(tasks) + 1
    assert sorted(x.task.task_id for x in results) == [
        t.task_id for t in tasks]
    by_id = {r.task_id: r for r in cluster.obs.task_records}
    for task in tasks:
        record = by_id[task.task_id]
        # Ready when its latest dependency ended, or as soon as it was
        # queued when none was still open then.
        assert record.ready == max(
            [record.queued]
            + [by_id[d.task_id].end for d in task.dependencies()])
        assert not record.retried and record.category is None
    assert by_id[None].category == "driver"


def checked_start_candidates():
    """``Run.start_candidates`` that first checks the executor state a
    run carries across events, the ready set's shut and open pins
    included, against a recount from the nodes."""
    original = Run.start_candidates

    def checked(run):
        usable = run.cluster._usable_nodes()
        assert run.usable == usable
        assert run.free_slots == sum(
            node.slots - node.busy_slots for node in usable.values())
        shut = {name for name, node in usable.items()
                if node.busy_slots >= node.slots}
        if run.free_slots <= 0:
            shut.add(None)
        ready = run.ready
        assert ready._shut == shut
        assert ready._open == set(ready._queues) - shut
        return original(run)

    return mock.patch.object(Run, "start_candidates", checked)


@given(
    recorded_workloads,
    st.integers(0, 2 ** 16),
    st.floats(0.05, 0.95),
    st.sampled_from([None, 0.5, 5.0]),
    st.floats(0.0, 0.6),
)
@settings(max_examples=100, deadline=None)
def test_records_stay_consistent_under_a_crash_and_transient_failures(
        workload, seed, crash_frac, restart_after, fail_rate):
    n_nodes, slots, memory_bytes, tasks = workload
    cluster = make_cluster(n_nodes, slots, memory_bytes)
    cluster.install_recovery(spark_recovery())
    plan = FaultPlan(seed=seed, retry_policy=RetryPolicy(max_attempts=6,
                                                         base_delay_s=0.1))
    plan.crash_node(f"node-{seed % n_nodes}",
                    at_time=crash_frac * 2.0 * len(tasks),
                    restart_after=restart_after)
    plan.fail_tasks(fail_rate, detect_delay_s=0.2, max_failures_per_task=3)
    cluster.install_faults(plan)
    try:
        with checked_start_candidates():
            cluster.run(tasks)
    except ClusterError:
        pass  # what was filed before the run gave up still has to hold
    check_records(cluster, tasks)
    recovered = [r for r in cluster.obs.task_records if r.op == "@recovery"]
    assert all(r.retried and r.category == "spark-recompute"
               for r in recovered)
