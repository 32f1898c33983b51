"""Property-based tests: executor and substrate invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.cluster.errors import OutOfMemoryError
from repro.cluster.memory import MemoryTracker
from repro.engines.spark.partitioner import HashPartitioner, stable_hash
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
    tasks = [Task(f"t{i}", duration=d) for i, d in enumerate(durations)]
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
        previous = Task(f"t{i}", duration=d, deps=deps)
    cluster.run([previous])
    assert abs(cluster.now - sum(durations)) < 1e-9


@given(
    st.lists(st.integers(1, 100), min_size=1, max_size=30),
    st.integers(100, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_memory_tracker_conserves(sizes, capacity):
    """used + available == capacity at every step; OOM exactly when the
    request exceeds what is available."""
    tracker = MemoryTracker("n", capacity)
    allocations = []
    for size in sizes:
        if size <= tracker.available_bytes:
            allocations.append(tracker.allocate(size))
        else:
            with pytest.raises(OutOfMemoryError):
                tracker.allocate(size)
        assert tracker.used_bytes + tracker.available_bytes == capacity
    for alloc in allocations:
        tracker.free(alloc)
    assert tracker.used_bytes == 0


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
        Task(f"t{i}", duration=d, not_before=nb)
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
    tasks = [Task(f"t{i}", duration=1.0) for i in range(n_tasks)]
    cluster.run(tasks)
    waves = -(-n_tasks // cluster.spec.total_slots)
    assert abs(cluster.now - waves) < 1e-9


@st.composite
def mixed_workloads(draw):
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
            on_oom="wait",
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
