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
"""

import time

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.obs import compute_critical_path
from repro.obs.spans import TaskRecord

GROWTH = 4
BOUND = 6.0
#: 16 -> 256 nodes at a fixed task count.  Measured on a shared 2-core
#: host: about 2.5-3.4x when every event rescanned the nodes, 0.7-1.0x
#: with the node state carried across events.
NODE_GROWTH = 16
NODE_BOUND = 1.75


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
             not_before=i * 0.01)
        for i in range(n_tasks)
    ]
    return lambda: cluster.run(tasks)


def _dependency_free_walk(n_records):
    # Abutting coordinator charges with a straggler every tenth step:
    # every step of the walk is a handover.
    records = [
        TaskRecord(f"step-{i}", "node-0", float(i),
                   i + (3.5 if i % 10 == 0 else 1.0))
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
