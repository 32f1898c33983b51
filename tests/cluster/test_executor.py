"""Tests for the discrete-event task executor."""

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.cluster.errors import (
    OutOfMemoryError,
    PlacementError,
    TaskFailedError,
)
from repro.obs.spans import PSEUDO_OVERHEAD

GB = 1024 ** 3


@pytest.fixture
def cluster():
    return SimulatedCluster(ClusterSpec(n_nodes=2))


def test_single_task(cluster):
    t = Task("t", fn=lambda: 41, duration=2.5, op=PSEUDO_OVERHEAD)
    results = cluster.run([t])
    assert results[t.task_id].value == 41
    assert cluster.now == 2.5


def test_dependency_chain_serializes(cluster):
    a = Task("a", fn=lambda: 1, duration=1.0, op=PSEUDO_OVERHEAD)
    b = Task("b", fn=lambda x: x + 1, args=(a,), duration=1.0, op=PSEUDO_OVERHEAD)
    c = Task("c", fn=lambda x: x + 1, args=(b,), duration=1.0, op=PSEUDO_OVERHEAD)
    cluster.run([c])
    assert cluster.result_of(c) == 3
    assert cluster.now == 3.0


def test_independent_tasks_parallelize(cluster):
    tasks = [Task(f"t{i}", duration=1.0, op=PSEUDO_OVERHEAD) for i in range(16)]
    cluster.run(tasks)
    # 2 nodes x 8 slots: all 16 run concurrently.
    assert cluster.now == 1.0


def test_slot_contention(cluster):
    tasks = [Task(f"t{i}", duration=1.0, op=PSEUDO_OVERHEAD) for i in range(17)]
    cluster.run(tasks)
    assert cluster.now == 2.0  # one task waits for a free slot


def test_pinned_placement(cluster):
    t = Task("pin", duration=1.0, node="node-1", op=PSEUDO_OVERHEAD)
    results = cluster.run([t])
    assert results[t.task_id].node == "node-1"


def test_unknown_node_rejected(cluster):
    t = Task("bad", duration=1.0, node="node-99", op=PSEUDO_OVERHEAD)
    with pytest.raises(PlacementError):
        cluster.run([t])


def test_pinned_tasks_queue_on_their_node(cluster):
    tasks = [Task(f"p{i}", duration=1.0, node="node-0",
                  op=PSEUDO_OVERHEAD) for i in range(9)]
    cluster.run(tasks)
    assert cluster.now == 2.0  # 8 slots on node-0, ninth task waits


def test_cross_node_transfer_charged(cluster):
    producer = Task("p", fn=lambda: "data", duration=1.0,
                    node="node-0", output_bytes=125 * 1024 ** 2, op=PSEUDO_OVERHEAD)
    consumer = Task("c", fn=lambda x: x, args=(producer,), duration=1.0,
                    node="node-1", op=PSEUDO_OVERHEAD)
    cluster.run([consumer])
    # ~1 second of network time for 125 MB at 125 MB/s.
    assert cluster.now > 2.5


def test_same_node_consumer_pays_no_network(cluster):
    producer = Task("p", fn=lambda: "data", duration=1.0,
                    node="node-0", output_bytes=125 * 1024 ** 2, op=PSEUDO_OVERHEAD)
    consumer = Task("c", fn=lambda x: x, args=(producer,), duration=1.0,
                    node="node-0", op=PSEUDO_OVERHEAD)
    cluster.run([consumer])
    assert cluster.now == pytest.approx(2.0, abs=0.01)


def test_duration_callable_sees_resolved_args(cluster):
    a = Task("a", fn=lambda: 7, duration=0.5, op=PSEUDO_OVERHEAD)
    b = Task("b", fn=lambda x: x, args=(a,), duration=lambda x: float(x),
             op=PSEUDO_OVERHEAD)
    cluster.run([b])
    assert cluster.now == pytest.approx(7.5)


def test_not_before_delays_start(cluster):
    t = Task("late", duration=1.0, not_before=4.0, op=PSEUDO_OVERHEAD)
    cluster.run([t])
    assert cluster.now == 5.0


def test_failing_task_wrapped(cluster):
    def boom():
        raise RuntimeError("kaboom")

    with pytest.raises(TaskFailedError) as excinfo:
        cluster.run([Task("boom", fn=boom, op=PSEUDO_OVERHEAD)])
    assert "kaboom" in str(excinfo.value)


def test_oom_fail_policy(cluster):
    t = Task("big", duration=1.0, memory_bytes=100 * GB, on_oom="fail",
             op=PSEUDO_OVERHEAD)
    with pytest.raises(OutOfMemoryError):
        cluster.run([t])


def test_oom_wait_policy_serializes(cluster):
    big = 40 * GB  # two fit nowhere together on one 61 GB node
    t1 = Task("m1", duration=1.0, memory_bytes=big, on_oom="wait", node="node-0",
              op=PSEUDO_OVERHEAD)
    t2 = Task("m2", duration=1.0, memory_bytes=big, on_oom="wait", node="node-0",
              op=PSEUDO_OVERHEAD)
    cluster.run([t1, t2])
    assert cluster.now == 2.0


def test_oom_wait_oversized_task_still_fails(cluster):
    t = Task("huge", duration=1.0, memory_bytes=100 * GB, on_oom="wait",
             op=PSEUDO_OVERHEAD)
    with pytest.raises(OutOfMemoryError):
        cluster.run([t])


def test_oom_spill_charges_disk(cluster):
    t = Task("spilly", duration=1.0, memory_bytes=70 * GB, on_oom="spill",
             op=PSEUDO_OVERHEAD)
    cluster.run([t])
    # ~9 GB of overflow spilled: write + read back.
    assert cluster.now > 30.0


def test_memory_released_after_task(cluster):
    t1 = Task("m1", duration=1.0, memory_bytes=50 * GB, node="node-0",
              op=PSEUDO_OVERHEAD)
    cluster.run([t1])
    t2 = Task("m2", duration=1.0, memory_bytes=50 * GB, node="node-0",
              op=PSEUDO_OVERHEAD)
    cluster.run([t2])  # would OOM if t1's memory were leaked
    assert cluster.now == 2.0


def test_results_persist_across_runs(cluster):
    a = Task("a", fn=lambda: 10, duration=1.0, op=PSEUDO_OVERHEAD)
    cluster.run([a])
    b = Task("b", fn=lambda x: x * 2, args=(a,), duration=1.0, op=PSEUDO_OVERHEAD)
    cluster.run([b])
    assert cluster.result_of(b) == 20


def test_charge_master_advances_clock(cluster):
    cluster.charge_master(5.0, op=PSEUDO_OVERHEAD)
    assert cluster.now == 5.0
    with pytest.raises(ValueError):
        cluster.charge_master(-1.0, op=PSEUDO_OVERHEAD)


def test_utilization_bounded(cluster):
    cluster.run([Task(f"t{i}", duration=1.0, op=PSEUDO_OVERHEAD) for i in range(8)])
    assert 0.0 < cluster.utilization() <= 1.0


def test_invalid_oom_policy_rejected():
    with pytest.raises(ValueError):
        Task("t", on_oom="explode", op=PSEUDO_OVERHEAD)


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        Task("t", duration=-1.0, op=PSEUDO_OVERHEAD)


BAD_PRICES = [float("nan"), float("inf"), -5.0]


@pytest.mark.parametrize("price", BAD_PRICES[:2], ids=["nan", "inf"])
def test_non_finite_static_price_or_floor_rejected(price):
    with pytest.raises(ValueError, match="finite"):
        Task("t", duration=price, op=PSEUDO_OVERHEAD)
    with pytest.raises(ValueError, match="finite"):
        Task("t", not_before=price, op=PSEUDO_OVERHEAD)


@pytest.mark.parametrize("price", BAD_PRICES, ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("form", ["static", "callable"])
def test_bad_price_fails_its_task_and_leaves_the_clock(cluster, form, price):
    """A price that is not a finite number of seconds >= 0 fails the
    task it priced, by name and category, before it reaches the clock.
    A static one can only get here by being set after construction."""
    ok = Task("ok", duration=1.0, node="node-0", op=PSEUDO_OVERHEAD)
    if form == "static":
        bad = Task("bad", duration=2.0, node="node-1", category="c-bad",
                   op=PSEUDO_OVERHEAD)
        bad.duration = price
    else:
        bad = Task("bad", duration=lambda: price, node="node-1",
                   category="c-bad", op=PSEUDO_OVERHEAD)
    with pytest.raises(TaskFailedError) as info:
        cluster.run([ok, bad])
    assert info.value.task_name == "bad"
    assert info.value.category == "c-bad"
    assert cluster.now == 0.0
    assert all(node.busy_slots == 0 for node in cluster.nodes.values())


@pytest.mark.parametrize("price", BAD_PRICES, ids=["nan", "inf", "negative"])
def test_bad_charge_is_refused_by_label_and_category(cluster, price):
    """A coordinator charge that is not a finite number of seconds >= 0
    is refused, naming its label and category, before it reaches the
    clock (an infinite one once set ``now`` to inf and the critical
    path's makespan to nan)."""
    with pytest.raises(ValueError, match=r"'submit' \(c-master\).*finite"):
        cluster.charge_master(price, label="submit", category="c-master",
                              op=PSEUDO_OVERHEAD)
    assert cluster.now == 0.0
    assert cluster.obs.task_records == []


@pytest.mark.parametrize("price", BAD_PRICES, ids=["nan", "inf", "negative"])
def test_bad_price_after_a_good_one_fails_mid_run(cluster, price):
    first = Task("first", fn=lambda: 3, duration=1.0, op=PSEUDO_OVERHEAD)
    then = Task("then", args=(first,), duration=lambda x: price * x,
                category="c-then", op=PSEUDO_OVERHEAD)
    with pytest.raises(TaskFailedError) as info:
        cluster.run([first, then])
    assert (info.value.task_name, info.value.category) == ("then", "c-then")
    assert cluster.now == 1.0


def test_task_trace_records_names(cluster):
    cluster.run([Task("traced", duration=1.0, op=PSEUDO_OVERHEAD)])
    assert any(r.name == "traced" for r in cluster.obs.task_records)
