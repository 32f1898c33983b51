"""The ready-set index against the full rescan it replaced.

``SimulatedCluster.run`` used to walk every ready task, in task-id
order, after every event.  It now keeps them in a
:class:`~repro.cluster.ready.ReadySet` and looks only at the tasks an
event can start.  Three kinds of test hold the index to the scan's
decisions: unit tests of the class, a reference list scheduler that
still rescans everything (``reference_schedule``, also the oracle of
the hypothesis property in ``tests/properties/test_prop_cluster.py``),
and one named test per clause of the order contract in DESIGN.md §11.
"""

import heapq
import random
from collections import defaultdict

import pytest

from repro.cluster import ClusterSpec, NodeSpec, SimulatedCluster, Task
from repro.cluster.errors import (
    NodeCrashedError,
    PlacementError,
    TaskFailedError,
)
from repro.cluster.faults import FaultPlan, spark_recovery
from repro.cluster.ready import ReadySet
from repro.cluster.run import Run
from repro.obs.spans import PSEUDO_OVERHEAD

GB = 1024 ** 3


def make_cluster(n_nodes, slots, memory_bytes=GB):
    """``n_nodes`` nodes of ``slots`` slots and ``memory_bytes`` each."""
    node = NodeSpec("test", cores=slots, memory_bytes=memory_bytes,
                    disk_bytes=GB)
    return SimulatedCluster(ClusterSpec(n_nodes=n_nodes, node=node))


def placements(results):
    """``{task name: (node, start, end)}`` of one ``run``."""
    return {
        r.name: (r.node, r.start, r.end)
        for r in results.values()
    }


# ----------------------------------------------------------------------
# The class on its own
# ----------------------------------------------------------------------

def drain(ready, now):
    return [task.name for task in ready.due(now)]


def asleep(ready):
    return sorted(task.name for _floor, _task_id, task in ready.asleep)


def test_due_merges_the_queues_in_task_id_order():
    tasks = [
        Task("a", node="node-1", op=PSEUDO_OVERHEAD),
        Task("b", op=PSEUDO_OVERHEAD),
        Task("c", node="node-0", op=PSEUDO_OVERHEAD),
        Task("d", node="node-1", op=PSEUDO_OVERHEAD),
        Task("e", op=PSEUDO_OVERHEAD),
    ]
    ready = ReadySet()
    for task in reversed(tasks):
        ready.add(task, now=0.0)
    assert asleep(ready) == []
    assert len(ready) == 5
    assert drain(ready, 0.0) == ["a", "b", "c", "d", "e"]
    assert len(ready) == 0 and not ready


def test_a_task_sleeps_until_its_floor_then_joins_its_queue():
    early, late, due = (
        Task("early", not_before=2.0, op=PSEUDO_OVERHEAD), Task("late", not_before=5.0,
                                                                op=PSEUDO_OVERHEAD),
        Task("due", not_before=1.0, op=PSEUDO_OVERHEAD),
    )
    ready = ReadySet()
    ready.add(early, now=1.0)
    ready.add(late, now=1.0)
    ready.add(due, now=1.0)  # floor already reached
    assert asleep(ready) == ["early", "late"]
    assert ready.asleep[0][:2] == (2.0, early.task_id)  # the next wake
    assert drain(ready, 1.0) == ["due"]
    assert len(ready) == 2  # sleepers count as ready
    assert not ready.has_due(1.9)  # nothing queued, no floor passed
    assert ready.has_due(2.0)
    assert drain(ready, 1.9) == []
    assert drain(ready, 2.0) == ["early"]
    assert drain(ready, 9.0) == ["late"]
    assert ready.asleep == []


def test_a_closed_queue_keeps_its_tasks_for_a_later_event():
    tasks = [Task("p0", node="node-0", op=PSEUDO_OVERHEAD),
             Task("u1", op=PSEUDO_OVERHEAD),
             Task("p2", node="node-0", op=PSEUDO_OVERHEAD)]
    ready = ReadySet()
    ready.shut("node-0")
    for task in tasks:
        ready.add(task, now=0.0)
    assert drain(ready, 0.0) == ["u1"]
    assert len(ready) == 2
    assert not ready.has_due(0.0)  # the only queue left is shut
    ready.reopen("node-0")
    assert drain(ready, 0.0) == ["p0", "p2"]


def test_a_head_is_checked_again_when_it_is_reached():
    """Starting one task may shut the queue of a later one."""
    tasks = [Task("u0", op=PSEUDO_OVERHEAD),
             Task("p1", node="node-0", op=PSEUDO_OVERHEAD),
             Task("u2", op=PSEUDO_OVERHEAD),
             Task("p3", node="node-0", op=PSEUDO_OVERHEAD)]
    ready = ReadySet()
    for task in tasks:
        ready.add(task, now=0.0)
    seen = []
    for task in ready.due(0.0):
        seen.append(task.name)
        if task.name == "u0":
            ready.shut("node-0")  # u0 took node-0's last slot
    assert seen == ["u0", "u2"]
    ready.reopen("node-0")
    assert drain(ready, 0.0) == ["p1", "p3"]


def test_a_yielded_task_can_be_handed_back_under_another_pin():
    stale = Task("stale", node="node-9", op=PSEUDO_OVERHEAD)
    other = Task("other", op=PSEUDO_OVERHEAD)
    ready = ReadySet()
    ready.shut(None)  # no slot free anywhere: only the stale pin is open
    ready.add(stale, now=0.0)
    ready.add(other, now=0.0)
    for task in ready.due(0.0):
        task.node = None
        ready.add(task, 0.0)
    assert len(ready) == 2
    ready.reopen(None)
    assert drain(ready, 0.0) == ["stale", "other"]


def test_first_is_the_lowest_id_due_or_not():
    sleeper = Task("sleeper", not_before=9.0, op=PSEUDO_OVERHEAD)
    pinned = Task("pinned", node="node-1", op=PSEUDO_OVERHEAD)
    free = Task("free", op=PSEUDO_OVERHEAD)
    ready = ReadySet()
    for task in (free, pinned):
        ready.add(task, now=0.0)
    assert ready.first() is pinned
    ready.add(sleeper, now=0.0)
    assert ready.first() is sleeper
    ready.clear()
    assert len(ready) == 0
    assert drain(ready, 99.0) == []


# ----------------------------------------------------------------------
# The scan the index replaced, kept as the oracle
# ----------------------------------------------------------------------

def reference_schedule(tasks, n_nodes, slots, memory_bytes):
    """List scheduler that rescans every unstarted task after every event.

    Models slots, pins, ``not_before``, dependencies and memory
    admission under ``on_oom="wait"``; no transfers and no faults.
    Returns ``{task name: (node, start, end)}``.
    """
    names = [f"node-{i}" for i in range(n_nodes)]
    busy = dict.fromkeys(names, 0)
    used = dict.fromkeys(names, 0)
    waiting = sorted(tasks, key=lambda t: t.task_id)
    deferred = set()  # memory-deferred: looked at again after a completion
    running = []  # heap of (end, task_id, task, node)
    done = set()
    placed = {}
    now = 0.0
    while waiting:
        floors = []
        started = set()
        for task in waiting:
            if (task.task_id in deferred
                    or any(d.task_id not in done for d in task.dependencies())):
                continue
            if task.not_before > now:
                floors.append((task.not_before, task.task_id))
                continue
            node = task.node
            if node is None:
                node = max(names, key=lambda name: slots - busy[name])
            if busy[node] >= slots:
                continue
            if used[node] + task.memory_bytes > memory_bytes:
                deferred.add(task.task_id)
                continue
            busy[node] += 1
            used[node] += task.memory_bytes
            end = now + 0.0 + task.duration
            placed[task.name] = (node, now, end)
            heapq.heappush(running, (end, task.task_id, task, node))
            started.add(task.task_id)
        waiting = [t for t in waiting if t.task_id not in started]
        # One event at a time, ordered by (time, task id): the earliest
        # completion, or the earliest floor of a task that is ready.
        wake = min(floors, default=None)
        if running and (wake is None or running[0][:2] < wake):
            now, _tid, task, node = heapq.heappop(running)
            busy[node] -= 1
            used[node] -= task.memory_bytes
            done.add(task.task_id)
            deferred.clear()
        elif wake is not None:
            now = wake[0]
        else:
            raise AssertionError(f"reference scheduler stuck on {waiting}")
    return placed


def random_workload(rng, n_nodes, memory_bytes):
    """A DAG mixing pinned, unpinned, staggered and memory-bound tasks."""
    tasks = []
    for index in range(rng.randint(1, 40)):
        deps = rng.sample(tasks, min(len(tasks), rng.choice((0, 0, 1, 2))))
        tasks.append(Task(
            f"t{index}",
            duration=rng.choice((0.0, 0.5, 1.0, 1.0, 2.5)),
            node=(f"node-{rng.randrange(n_nodes)}"
                  if rng.random() < 0.5 else None),
            deps=deps,
            not_before=rng.choice((0.0, 0.0, 0.5, 1.0, 3.0, 4.5)),
            memory_bytes=rng.choice((0, 0, 30, 60, memory_bytes)),
            on_oom="wait", op=PSEUDO_OVERHEAD,
        ))
    return tasks


@pytest.mark.parametrize("seed", range(60))
def test_run_matches_the_rescanning_reference(seed):
    rng = random.Random(seed)
    n_nodes, slots, memory_bytes = rng.randint(1, 4), rng.randint(1, 3), 100
    tasks = random_workload(rng, n_nodes, memory_bytes)
    cluster = make_cluster(n_nodes, slots, memory_bytes)
    got = placements(cluster.run(tasks))
    assert got == reference_schedule(tasks, n_nodes, slots, memory_bytes)


class CountingQueues(defaultdict):
    """A ready set's pin -> queue table that notes the queues looked at:
    a pin read by key, and every pin of a walk over the table."""

    def __init__(self):
        super().__init__(list)
        self.visited = set()

    def __getitem__(self, pin):
        self.visited.add(pin)
        return super().__getitem__(pin)

    def __iter__(self):
        self.visited.update(super().keys())
        return super().__iter__()

    def items(self):
        self.visited.update(super().keys())
        return super().items()

    def values(self):
        self.visited.update(super().keys())
        return super().values()


def test_staggered_pinned_run_costs_one_event_per_attempt(monkeypatch):
    """Dask's download graph in miniature: 1 152 tasks pinned in blocks
    to 8 nodes, dispatched 10 ms apart, every pin oversubscribed.

    A sleeper wakes the loop from the ready set, so the only events are
    completions; and an event looks only at the queues that can act, so
    a queue whose node is full is not visited while its tasks wait.
    """
    n_nodes, slots = 16, 2
    tasks = [
        Task(f"t{i}", duration=0.5, node=f"node-{(i // 144) % 8}",
             not_before=i * 0.01, op=PSEUDO_OVERHEAD)
        for i in range(1152)
    ]
    tables = []
    init = ReadySet.__init__

    def counting_init(self):
        init(self)
        self._queues = CountingQueues()
        tables.append(self._queues)

    monkeypatch.setattr(ReadySet, "__init__", counting_init)
    shed = [0]
    shed_stale_pin = Run.shed_stale_pin

    def counted_shed(self, task):
        shed[0] += 1
        shed_stale_pin(self, task)

    monkeypatch.setattr(Run, "shed_stale_pin", counted_shed)
    start_candidates = Run.start_candidates
    per_event = []  # (queues visited, tasks started, stale pins shed)

    def per_event_counts(self):
        tables[-1].visited.clear()
        running, stale = len(self.inflight), shed[0]
        start_candidates(self)
        per_event.append((len(tables[-1].visited),
                          len(self.inflight) - running, shed[0] - stale))

    monkeypatch.setattr(Run, "start_candidates", per_event_counts)
    cluster = make_cluster(n_nodes, slots, memory_bytes=100)
    got = placements(cluster.run(tasks))
    # One attempt per task, and one event per attempt.
    assert len(got) == len(tasks) and cluster._event_seq == len(tasks)
    over = [(event, visited, starts, stale)
            for event, (visited, starts, stale) in enumerate(per_event)
            if visited > starts + stale]
    assert over == []
    assert got == reference_schedule(tasks, n_nodes, slots, 100)


# ----------------------------------------------------------------------
# The order contract, clause by clause
# ----------------------------------------------------------------------

def test_unpinned_task_sees_the_lower_id_starts_of_its_own_event():
    """Pinned and unpinned queues are merged by id, not drained in turn."""
    cluster = make_cluster(n_nodes=2, slots=2)
    tasks = [
        Task("p0", duration=1.0, node="node-0", op=PSEUDO_OVERHEAD),
        Task("u1", duration=1.0, op=PSEUDO_OVERHEAD),  # node-0 has 1 free, node-1 has 2
        Task("p2", duration=1.0, node="node-1", op=PSEUDO_OVERHEAD),
        Task("u3", duration=1.0, op=PSEUDO_OVERHEAD),  # node-0 has 1 free, node-1 none
    ]
    got = placements(cluster.run(tasks))
    assert {name: node for name, (node, _s, _e) in got.items()} == {
        "p0": "node-0", "u1": "node-1", "p2": "node-1", "u3": "node-0",
    }
    assert all(start == 0.0 for _node, start, _end in got.values())


def test_unpinned_task_takes_the_first_node_on_a_tie():
    cluster = make_cluster(n_nodes=3, slots=1)
    got = placements(cluster.run([Task(f"u{i}", duration=1.0, op=PSEUDO_OVERHEAD)
                                  for i in range(3)]))
    assert [got[f"u{i}"][0] for i in range(3)] == ["node-0", "node-1", "node-2"]


def test_sleeper_needs_no_event_and_runs_at_the_first_event_past_its_floor():
    cluster = make_cluster(n_nodes=1, slots=1)
    tasks = [
        Task("first", duration=5.0, op=PSEUDO_OVERHEAD),
        Task("sleeper", duration=1.0, not_before=5.0, op=PSEUDO_OVERHEAD),
        Task("patient", duration=1.0,
             op=PSEUDO_OVERHEAD),  # due since 0, but a higher id
    ]
    got = placements(cluster.run(tasks))
    # "first" completes at (5.0, id 0), ahead of the sleeper's own wake
    # at (5.0, id 1): the sleeper is a candidate there, starts at its
    # floor and outranks "patient".
    assert got["sleeper"] == ("node-0", 5.0, 6.0)
    assert got["patient"] == ("node-0", 6.0, 7.0)
    # Three completions and no other event, though the sleeper was
    # ready and not yet due at the start of the run.
    assert cluster._event_seq == 3


def test_a_lone_sleeper_wakes_the_loop_itself():
    cluster = make_cluster(n_nodes=1, slots=1)
    got = placements(cluster.run([Task("s", duration=1.0, not_before=3.0,
                                       op=PSEUDO_OVERHEAD)]))
    assert got["s"] == ("node-0", 3.0, 4.0)


def test_pinned_task_waits_when_an_unpinned_one_filled_its_node_first():
    cluster = make_cluster(n_nodes=2, slots=1)
    tasks = [
        Task("u0", duration=2.0,
             op=PSEUDO_OVERHEAD),  # lands on node-0, the first of the tie
        Task("p1", duration=1.0, node="node-0", op=PSEUDO_OVERHEAD),
        Task("p2", duration=1.0, node="node-1", op=PSEUDO_OVERHEAD),
    ]
    got = placements(cluster.run(tasks))
    assert got["u0"] == ("node-0", 0.0, 2.0)
    assert got["p2"] == ("node-1", 0.0, 1.0)
    assert got["p1"] == ("node-0", 2.0, 3.0)


def test_memory_deferred_task_takes_no_slot_and_reenters_in_id_order():
    cluster = make_cluster(n_nodes=1, slots=2, memory_bytes=100)
    hog = Task("hog", duration=2.0, memory_bytes=80, on_oom="wait", op=PSEUDO_OVERHEAD)
    deferred = Task("deferred", duration=1.0, memory_bytes=50, on_oom="wait",
                    op=PSEUDO_OVERHEAD)
    child = Task("child", duration=1.0, deps=[hog], op=PSEUDO_OVERHEAD)
    filler = Task("filler", duration=10.0, op=PSEUDO_OVERHEAD)
    got = placements(cluster.run([hog, deferred, child, filler]))
    # "deferred" is turned away at 0 without taking the second slot...
    assert got["filler"] == ("node-0", 0.0, 10.0)
    # ...and at hog's completion it goes ahead of the newly-ready child,
    # which has the higher id, for the one slot that freed.
    assert got["deferred"] == ("node-0", 2.0, 3.0)
    assert got["child"] == ("node-0", 3.0, 4.0)
    record = {r.name: r for r in cluster.obs.task_records}
    assert record["deferred"].mem_deferred and not record["child"].mem_deferred


def crash_node_1(cluster, restart_after=None):
    """Kill idle ``node-1`` at t=0.5 in a first run.

    Under "recompute" that run goes on to t=1.0; under "abort" it ends
    with the crash, at t=0.5.
    """
    cluster.install_faults(
        FaultPlan().crash_node("node-1", at_time=0.5,
                               restart_after=restart_after)
    )
    warmup = Task("warmup", duration=1.0, node="node-0", op=PSEUDO_OVERHEAD)
    try:
        cluster.run([warmup])
    except NodeCrashedError:
        pass  # the abort policy; the node is down either way
    assert not cluster.node("node-1").alive


def test_stale_pin_is_shed_even_when_no_slot_is_free():
    """Under "recompute" the pin goes when its task is reached, not
    when a slot frees: by then the node may be back and taken."""
    cluster = make_cluster(n_nodes=2, slots=1)
    cluster.install_recovery(spark_recovery())
    crash_node_1(cluster, restart_after=1.5)  # back at t=2.0
    assert cluster.now == 1.0
    tasks = [
        Task("a", duration=3.0,
             op=PSEUDO_OVERHEAD),  # takes node-0, the only usable slot
        Task("w", duration=10.0, op=PSEUDO_OVERHEAD),
        Task("p", duration=1.0, node="node-1",
             op=PSEUDO_OVERHEAD),  # stale, no slot free
    ]
    got = placements(cluster.run(tasks))
    assert got["a"] == ("node-0", 1.0, 4.0)
    assert got["w"] == ("node-1", 2.0, 12.0)  # the revived node
    # Had "p" kept its pin until a slot freed, it would now wait for "w".
    assert got["p"] == ("node-0", 4.0, 5.0)
    assert tasks[2].node is None


def test_shed_task_is_placed_as_unpinned_in_the_same_step():
    cluster = make_cluster(n_nodes=3, slots=1)
    cluster.install_recovery(spark_recovery())
    crash_node_1(cluster)
    tasks = [
        Task("p", duration=1.0, node="node-1",
             op=PSEUDO_OVERHEAD),  # stale: goes to node-0
        Task("u", duration=1.0, op=PSEUDO_OVERHEAD),
    ]
    got = placements(cluster.run(tasks))
    assert got["p"] == ("node-0", 1.0, 2.0)
    assert got["u"] == ("node-2", 1.0, 2.0)


def test_stale_pin_surfaces_in_id_order_under_abort():
    """Lower-id tasks have started (their side effects are visible to
    the engine's rerun); higher-id ones have not."""
    cluster = make_cluster(n_nodes=3, slots=1)
    crash_node_1(cluster)
    log = []
    tasks = [
        Task("before", fn=lambda: log.append("before"), duration=1.0,
             op=PSEUDO_OVERHEAD),
        Task("stale", duration=1.0, node="node-1", op=PSEUDO_OVERHEAD),
        Task("after", fn=lambda: log.append("after"), duration=1.0, op=PSEUDO_OVERHEAD),
    ]
    with pytest.raises(NodeCrashedError) as info:
        cluster.run(tasks)
    assert log == ["before"]
    assert (info.value.node, info.value.at_time) == ("node-1", 0.5)
    assert all(node.busy_slots == 0 for node in cluster.nodes.values())


def test_stale_pin_surfaces_with_no_slot_free_but_not_before_it_is_due():
    cluster = make_cluster(n_nodes=2, slots=1)
    crash_node_1(cluster)
    log = []
    tasks = [
        Task("long", fn=lambda: log.append("long"), duration=10.0, op=PSEUDO_OVERHEAD),
        Task("stale", duration=1.0, node="node-1", not_before=4.0, op=PSEUDO_OVERHEAD),
        Task("queued", fn=lambda: log.append("queued"), duration=1.0,
             op=PSEUDO_OVERHEAD),
    ]
    with pytest.raises(NodeCrashedError) as info:
        cluster.run(tasks)
    # Raised at the floor, with node-0's only slot still held by "long".
    assert info.value.at_time == 4.0
    assert log == ["long"]


def test_unknown_pin_surfaces_at_its_floor_while_every_slot_is_busy():
    """A pin to a node the cluster never had is reached like a stale
    one: at the first event past its floor, with no slot free."""
    cluster = make_cluster(n_nodes=1, slots=1)
    log = []
    tasks = [
        Task("long", fn=lambda: log.append("long"), duration=10.0, op=PSEUDO_OVERHEAD),
        Task("lost", duration=1.0, node="node-7", not_before=4.0, op=PSEUDO_OVERHEAD),
        Task("queued", fn=lambda: log.append("queued"), duration=1.0,
             op=PSEUDO_OVERHEAD),
    ]
    with pytest.raises(PlacementError, match="node-7"):
        cluster.run(tasks)
    assert cluster.now == 4.0
    assert log == ["long"]


def test_sleeper_keeps_its_pin_across_a_crash_and_revive_elsewhere():
    """A crash rebuilds the whole ready set from the pending tasks."""
    cluster = make_cluster(n_nodes=3, slots=1)
    cluster.install_recovery(spark_recovery())
    cluster.install_faults(
        FaultPlan().crash_node("node-1", at_time=2.0, restart_after=3.0)
    )
    tasks = [
        Task("busy", duration=20.0, node="node-0", op=PSEUDO_OVERHEAD),
        Task("sleeper", duration=1.0, node="node-2", not_before=10.0,
             op=PSEUDO_OVERHEAD),
    ]
    got = placements(cluster.run(tasks))
    assert got["sleeper"] == ("node-2", 10.0, 11.0)
    assert tasks[1].node == "node-2"
    assert cluster.node("node-1").alive
    # crash + recover + two completions; the sleeper woke the loop
    # from the ready set, with no event of its own.
    assert cluster._event_seq == 4


def test_killed_attempt_requeues_behind_lower_ids_after_a_crash():
    cluster = make_cluster(n_nodes=2, slots=1)
    cluster.install_recovery(spark_recovery())
    cluster.install_faults(FaultPlan().crash_node("node-1", at_time=1.0))
    tasks = [
        Task("a", duration=2.0, node="node-0", op=PSEUDO_OVERHEAD),
        Task("victim", duration=5.0, node="node-1", op=PSEUDO_OVERHEAD),
        Task("waiting", duration=1.0, op=PSEUDO_OVERHEAD),
    ]
    got = placements(cluster.run(tasks))
    # Rebuilt at the crash: "victim" (unpinned now) outranks "waiting".
    assert got["victim"] == ("node-0", 2.0, 7.0)
    assert got["waiting"] == ("node-0", 7.0, 8.0)


def test_retry_of_a_sleeper_gets_a_fresh_timer():
    """The retry sleeps behind its new floor, which wakes the loop."""
    cluster = make_cluster(n_nodes=1, slots=1)
    cluster.install_faults(
        FaultPlan(seed=1).fail_tasks(1.0, detect_delay_s=0.5,
                                     max_failures_per_task=1)
    )
    got = placements(cluster.run([Task("t", duration=1.0, not_before=1.0,
                                       op=PSEUDO_OVERHEAD)]))
    # floor 1.0 + detection 0.5 + backoff(1) 1.0, then the real attempt;
    # nothing but the retry's own floor can wake the loop at 2.5.
    assert got["t"] == ("node-0", 2.5, 3.5)


# ----------------------------------------------------------------------
# Deadlocks
# ----------------------------------------------------------------------

def dead_cluster():
    """One node, crashed for good in an earlier run."""
    cluster = make_cluster(n_nodes=1, slots=1)
    cluster.install_faults(FaultPlan().crash_node("node-0", at_time=0.5))
    with pytest.raises(NodeCrashedError):
        cluster.run([Task("warmup", duration=1.0, op=PSEUDO_OVERHEAD)])
    return cluster


def test_deadlock_at_the_start_of_a_run_names_task_and_category():
    cluster = dead_cluster()
    tasks = [Task("first", category="spark-denoise", op=PSEUDO_OVERHEAD),
             Task("second", op=PSEUDO_OVERHEAD)]
    with pytest.raises(TaskFailedError) as info:
        cluster.run(tasks)
    assert info.value.task_name == "first"  # the lowest id
    assert info.value.category == "spark-denoise"
    assert "deadlock" in str(info.value.cause)


def test_deadlock_mid_run_has_the_same_message():
    """A sleeper keeps the loop alive past the start-of-run check."""
    cluster = dead_cluster()
    tasks = [Task("late", not_before=cluster.now + 1.0, category="c",
                  op=PSEUDO_OVERHEAD)]
    with pytest.raises(TaskFailedError) as mid_run:
        cluster.run(tasks)
    with pytest.raises(TaskFailedError) as at_start:
        cluster.run([Task("late", category="c", op=PSEUDO_OVERHEAD)])
    assert str(mid_run.value) == str(at_start.value)
    assert mid_run.value.category == "c"
