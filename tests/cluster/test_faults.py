"""Tests for deterministic fault injection (FaultPlan and friends).

The injection layer turns Section 2's qualitative fault-tolerance
claims into mechanics: seeded node crashes, transient task failures,
stragglers, degraded links, and flaky S3 reads, all scheduled on the
virtual clock so the same seed reproduces the same run bit-for-bit.
"""

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.cluster.errors import (
    NodeCrashedError,
    S3RetriesExhaustedError,
    TaskFailedError,
)
from repro.cluster.faults import (
    FaultPlan,
    RecoveryPolicy,
    RetryPolicy,
    _stable_fraction,
    dask_recovery,
    spark_recovery,
)
from repro.obs.spans import PSEUDO_OVERHEAD
from tests.properties.test_prop_cluster import check_records

GB = 1024 ** 3


@pytest.fixture
def cluster():
    return SimulatedCluster(ClusterSpec(n_nodes=2))


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------

def test_retry_backoff_is_exponential_and_capped():
    policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0, max_delay_s=5.0)
    assert policy.backoff(1) == 1.0
    assert policy.backoff(2) == 2.0
    assert policy.backoff(3) == 4.0
    assert policy.backoff(4) == 5.0  # capped
    assert policy.total_delay(3) == 7.0


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay_s=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy().backoff(0)


def test_recovery_policy_validation():
    with pytest.raises(ValueError):
        RecoveryPolicy(mode="reboot")
    with pytest.raises(ValueError):
        RecoveryPolicy(max_task_failures=0)
    assert spark_recovery().mode == RecoveryPolicy.RECOMPUTE
    assert spark_recovery().blacklist
    assert not dask_recovery().blacklist


# ----------------------------------------------------------------------
# FaultPlan construction and seeded draws
# ----------------------------------------------------------------------

def test_stable_fraction_is_deterministic_and_uniform_range():
    a = _stable_fraction(7, "task:x:1")
    assert a == _stable_fraction(7, "task:x:1")
    assert 0.0 <= a < 1.0
    assert a != _stable_fraction(8, "task:x:1")


def test_crash_node_requires_exactly_one_trigger():
    plan = FaultPlan()
    with pytest.raises(ValueError):
        plan.crash_node("node-1")
    with pytest.raises(ValueError):
        plan.crash_node("node-1", at_time=1.0, at_progress=0.5)
    with pytest.raises(ValueError):
        plan.crash_node("node-1", at_progress=1.5)


def test_builder_validation():
    plan = FaultPlan()
    with pytest.raises(ValueError):
        plan.slow_node("node-1", 0.5)
    with pytest.raises(ValueError):
        plan.degrade_link("a", "b", 0.9)
    with pytest.raises(ValueError):
        plan.fail_tasks(1.5)


def test_task_should_fail_respects_match_and_seed():
    plan = FaultPlan(seed=3).fail_tasks(1.0, match="flaky")
    hit = Task("flaky-map", duration=1.0, op=PSEUDO_OVERHEAD)
    miss = Task("solid-map", duration=1.0, op=PSEUDO_OVERHEAD)
    assert plan.task_should_fail(hit, 1) is not None
    assert plan.task_should_fail(miss, 1) is None


def test_task_should_fail_cap_limits_attempts():
    plan = FaultPlan(seed=3).fail_tasks(1.0, max_failures_per_task=2)
    t = Task("t", duration=1.0, op=PSEUDO_OVERHEAD)
    assert plan.task_should_fail(t, 1) is not None
    assert plan.task_should_fail(t, 2) is not None
    assert plan.task_should_fail(t, 3) is None


# ----------------------------------------------------------------------
# Node crashes
# ----------------------------------------------------------------------

def test_crash_aborts_run_under_default_policy(cluster):
    cluster.install_faults(
        FaultPlan().crash_node("node-1", at_time=5.0, restart_after=30.0)
    )
    tasks = [Task(f"t{i}", duration=10.0, op=PSEUDO_OVERHEAD) for i in range(16)]
    with pytest.raises(NodeCrashedError) as info:
        cluster.run(tasks)
    assert info.value.node == "node-1"
    assert info.value.at_time == 5.0
    assert info.value.recover_at == 35.0
    assert len(info.value.killed_tasks) == 8
    assert not cluster.node("node-1").alive


def test_abort_leaves_nothing_behind_and_the_resubmission_completes(cluster):
    """What an ``ABORT`` engine does: wait out the reboot, submit again."""
    cluster.install_faults(
        FaultPlan().crash_node("node-1", at_time=5.0, restart_after=30.0)
    )
    quick = [Task(f"quick{i}", duration=2.0, memory_bytes=GB, on_oom="wait",
                  op=PSEUDO_OVERHEAD)
             for i in range(8)]
    slow = [Task(f"slow{i}", duration=10.0, memory_bytes=GB, on_oom="wait",
                 deps=[quick[i]], op=PSEUDO_OVERHEAD) for i in range(8)]
    tasks = quick + slow
    with pytest.raises(NodeCrashedError) as info:
        cluster.run(tasks)
    killed = [t for t in slow if t.name in info.value.killed_tasks]
    first = dict(cluster.completed)
    assert len(killed) == 4 and len(first) == 8
    for node in cluster.nodes.values():
        assert node.busy_slots == 0 and node.memory.used_bytes == 0
    assert not cluster._inflight

    cluster.clock.advance_to(info.value.recover_at)
    results = cluster.run(tasks)
    # Everything that was killed or that died with node-1's memory ran
    # again; node-0's four finished results were kept.
    lost = [tid for tid, res in first.items() if res.node == "node-1"]
    assert sorted(results) == sorted(lost + [t.task_id for t in slow])
    assert cluster.now == 47.0
    check_records(cluster, tasks)
    assert cluster.node("node-1").failed_tasks == 4
    records = {}
    for record in cluster.obs.task_records:
        records.setdefault(record.task_id, []).append(record)
    for task in slow:
        # Admitted by the run that aborted, killed or drained: the same
        # record, first queue time included.
        (record,) = records[task.task_id]
        assert record.queued == 0.0 and not record.retried
        # Ready since its dependency first finished, unless that result
        # was lost too and had to be recomputed first.
        assert (record.ready, record.start) == (
            (37.0, 37.0) if task.deps[0].task_id in lost else (2.0, 35.0))
    for task_id in lost:
        first, again = records[task_id]
        assert (first.queued, first.end, first.retried) == (0.0, 2.0, False)
        assert (again.queued, again.start, again.retried) == (35.0, 35.0, True)


@pytest.mark.parametrize("when", ["run start", "last event", "dead attempts"])
def test_deadlock_blames_the_lowest_id_task_that_cannot_start(when):
    """Nothing in flight, no event left, and a task still waiting."""
    cluster = SimulatedCluster(ClusterSpec(n_nodes=1))
    node = cluster.node("node-0")
    first = Task("first", duration=1.0, category="stage-7", op=PSEUDO_OVERHEAD)
    if when == "dead attempts":
        # The only node dies for good: what is left in the heap belongs
        # to the attempt it killed.
        cluster.install_recovery(spark_recovery())
        cluster.install_faults(FaultPlan().crash_node("node-0", at_time=0.5))
        blocked = first
    else:
        # Half the memory is taken, so a task that needs all of it is
        # deferred, at the first look or once its dependency is done.
        node.memory.allocate(node.memory.capacity_bytes // 2, "resident")
        blocked = Task(
            "blocked", duration=1.0, category="stage-7", on_oom="wait",
            memory_bytes=node.memory.capacity_bytes,
            deps=[first] if when == "last event" else [], op=PSEUDO_OVERHEAD,
        )
    other = Task("other", duration=1.0, deps=[blocked], op=PSEUDO_OVERHEAD)
    with pytest.raises(TaskFailedError, match="deadlock") as info:
        cluster.run([other])
    assert info.value.task_name == blocked.name
    assert info.value.category == "stage-7"
    assert node.busy_slots == 0
    assert (first.task_id in cluster.completed) == (when == "last event")


def test_crash_wipes_memory_keeps_disk_by_default(cluster):
    node = cluster.node("node-1")
    node.memory.allocate(GB, "resident")
    node.disk.write("shuffle/part-0", b"x", GB)
    cluster.install_faults(FaultPlan().crash_node("node-1", at_time=1.0))
    with pytest.raises(NodeCrashedError):
        cluster.run([Task(f"t{i}", duration=5.0,
                          op=PSEUDO_OVERHEAD) for i in range(16)])
    assert node.memory.used_bytes == 0
    assert node.disk.used_bytes == GB


def test_crash_ends_the_memory_history_at_zero(cluster):
    """The wipe is one step of the node's history, stamped at the crash:
    everything resident goes at once, the killed attempts' working sets
    included."""
    node = cluster.node("node-1")
    node.memory.allocate(GB, "resident")
    cluster.install_faults(FaultPlan().crash_node("node-1", at_time=1.0))
    with pytest.raises(NodeCrashedError) as info:
        cluster.run([Task(f"t{i}", duration=5.0, memory_bytes=GB, op=PSEUDO_OVERHEAD)
                     for i in range(16)])
    held = 1 + len(info.value.killed_tasks)
    assert node.memory.history == [(0.0, GB)] * held + [(1.0, -held * GB)]
    assert node.memory.peak_bytes == held * GB


def test_crash_with_lose_disk_wipes_disk(cluster):
    node = cluster.node("node-1")
    node.disk.write("spill/part-0", b"x", GB)
    cluster.install_faults(
        FaultPlan().crash_node("node-1", at_time=1.0, lose_disk=True)
    )
    with pytest.raises(NodeCrashedError):
        cluster.run([Task(f"t{i}", duration=5.0,
                          op=PSEUDO_OVERHEAD) for i in range(16)])
    assert node.disk.used_bytes == 0


def test_recompute_policy_finishes_dag_on_survivors(cluster):
    cluster.install_recovery(spark_recovery())
    cluster.install_faults(FaultPlan().crash_node("node-1", at_time=5.0))
    tasks = [Task(f"t{i}", fn=lambda i=i: i, duration=10.0,
                  op=PSEUDO_OVERHEAD) for i in range(16)]
    results = cluster.run(tasks)
    assert sorted(r.value for r in results.values()) == list(range(16))
    # The victim's eight killed attempts were requeued onto node-0.
    assert cluster.node("node-1").failed_tasks == 8
    assert cluster.node("node-1").retried_tasks == 8
    assert all(r.node == "node-0" for r in results.values())


def test_recompute_resurrects_lost_dependencies(cluster):
    cluster.install_recovery(spark_recovery())
    dep = Task("dep", fn=lambda: 21, duration=1.0, node="node-1", op=PSEUDO_OVERHEAD)
    assert cluster.run([dep])[dep.task_id].value == 21
    cluster.install_faults(FaultPlan().crash_node("node-1", at_time=0.5))
    consumer = Task("use", fn=lambda x: 2 * x, args=(dep,), duration=10.0,
                    op=PSEUDO_OVERHEAD)
    results = cluster.run([consumer])
    # dep's result died with node-1 mid-run and was recomputed from
    # lineage before the consumer ran.
    assert results[consumer.task_id].value == 42


def test_failed_attempt_waits_for_the_dependency_a_crash_took(cluster):
    """``b``'s attempt is failing on node-0 when node-1 dies with ``a``'s
    result: the retry runs after the recompute of ``a``, not before."""
    cluster.install_recovery(spark_recovery())
    plan = FaultPlan(retry_policy=RetryPolicy(base_delay_s=0.1))
    plan.fail_tasks(1.0, match="b", detect_delay_s=0.5,
                    max_failures_per_task=1)
    plan.crash_node("node-1", at_time=1.2, restart_after=0.2)
    cluster.install_faults(plan)
    a = Task("a", fn=lambda: 7, duration=1.0, node="node-1", op=PSEUDO_OVERHEAD)
    b = Task("b", fn=lambda x: x + 1, args=(a,), duration=1.0, node="node-0",
             op=PSEUDO_OVERHEAD)
    results = cluster.run([b])
    assert results[b.task_id].value == 8
    first, again, retry = [
        r for r in cluster.obs.task_records if r.task_id is not None
    ]
    assert (first.name, first.end, first.retried) == ("a", 1.0, False)
    assert (again.name, again.start, again.end) == ("a", 1.2, 2.2)
    assert (retry.name, retry.ready, retry.start, retry.end) == (
        "b", 2.2, 2.2, 3.2)
    assert again.retried and retry.retried
    check_records(cluster, [a, b])


def test_progress_triggered_crash(cluster):
    cluster.install_recovery(dask_recovery())
    cluster.install_faults(FaultPlan().crash_node("node-1", at_progress=0.5))
    tasks = [Task(f"t{i}", duration=float(i + 1), op=PSEUDO_OVERHEAD) for i in range(8)]
    cluster.run(tasks)
    assert cluster.node("node-1").crash_count == 1


def test_crashed_node_rejoins_after_restart(cluster):
    cluster.install_recovery(spark_recovery())
    cluster.install_faults(
        FaultPlan().crash_node("node-1", at_time=1.0, restart_after=2.0)
    )
    cluster.run([Task(f"t{i}", duration=10.0, op=PSEUDO_OVERHEAD) for i in range(16)])
    assert cluster.node("node-1").alive
    # The revived node takes new work again (blacklist cleared).
    late = [Task(f"late{i}", duration=1.0, op=PSEUDO_OVERHEAD) for i in range(16)]
    results = cluster.run(late)
    assert {r.node for r in results.values()} == {"node-0", "node-1"}


def test_max_task_failures_bounds_crash_retries(cluster):
    cluster.install_recovery(
        RecoveryPolicy(mode=RecoveryPolicy.RECOMPUTE, max_task_failures=1)
    )
    cluster.install_faults(FaultPlan().crash_node("node-1", at_time=1.0))
    with pytest.raises(TaskFailedError) as info:
        cluster.run([Task(f"t{i}", duration=5.0,
                          op=PSEUDO_OVERHEAD) for i in range(16)])
    assert info.value.node == "node-1"


# ----------------------------------------------------------------------
# Transient task failures
# ----------------------------------------------------------------------

def test_transient_failure_retries_with_backoff(cluster):
    calls = []
    plan = FaultPlan(seed=1).fail_tasks(
        1.0, detect_delay_s=0.5, max_failures_per_task=1
    )
    cluster.install_faults(plan)
    t = Task("t", fn=lambda: calls.append(1) or 7, duration=1.0, op=PSEUDO_OVERHEAD)
    results = cluster.run([t])
    assert results[t.task_id].value == 7
    # The body ran exactly once: failed attempts never execute fn.
    assert calls == [1]
    # detection (0.5s) + backoff(1) (1s) + the real attempt (1s).
    assert cluster.now == pytest.approx(2.5)
    summary = {r["node"]: r for r in cluster.node_summaries()}
    assert sum(r["failed_tasks"] for r in summary.values()) == 1
    assert sum(r["retried_tasks"] for r in summary.values()) == 1


def test_transient_failures_exhaust_retry_budget(cluster):
    plan = FaultPlan(seed=1, retry_policy=RetryPolicy(max_attempts=2))
    plan.fail_tasks(1.0)
    cluster.install_faults(plan)
    t = Task("doomed", duration=1.0, category="spark", op=PSEUDO_OVERHEAD)
    with pytest.raises(TaskFailedError) as info:
        cluster.run([t])
    assert info.value.category == "spark"
    assert info.value.node is not None


# ----------------------------------------------------------------------
# Stragglers, links, S3
# ----------------------------------------------------------------------

def test_straggler_stretches_compute_on_that_node_only(cluster):
    cluster.install_faults(FaultPlan().slow_node("node-1", 3.0))
    fast = Task("fast", duration=1.0, node="node-0", op=PSEUDO_OVERHEAD)
    slow = Task("slow", duration=1.0, node="node-1", op=PSEUDO_OVERHEAD)
    cluster.run([fast, slow])
    # The straggler gates the run: 3x on node-1, untouched on node-0.
    assert cluster.now == 3.0
    assert cluster.node("node-0").busy_seconds == 1.0
    assert cluster.node("node-1").busy_seconds == 3.0


def test_degraded_link_stretches_transfers(cluster):
    def elapsed(plan):
        c = SimulatedCluster(ClusterSpec(n_nodes=2))
        if plan is not None:
            c.install_faults(plan)
        p = Task("p", fn=lambda: 0, duration=1.0, node="node-0",
                 output_bytes=GB, op=PSEUDO_OVERHEAD)
        q = Task("q", fn=lambda x: x, args=(p,), duration=1.0, node="node-1",
                 op=PSEUDO_OVERHEAD)
        c.run([q])
        return c.now

    healthy = elapsed(None)
    degraded = elapsed(FaultPlan().degrade_link("node-0", "node-1", 4.0))
    assert degraded > healthy * 2


def test_s3_transient_failures_charge_backoff_to_reader(cluster):
    cluster.object_store.put("bucket", "k0", b"x", 100)
    plan = FaultPlan(seed=2).fail_s3(1.0, max_failures_per_key=2)
    cluster.install_faults(plan)
    t = Task("read", fn=lambda: cluster.s3.get("bucket", "k0"), duration=1.0,
             op=PSEUDO_OVERHEAD)
    cluster.run([t])
    assert cluster.s3.retry_count == 2
    # 1s of work plus backoff(1) + backoff(2) = 1 + 2 seconds.
    assert cluster.now == pytest.approx(1.0 + plan.retry_policy.total_delay(2))


def test_s3_retries_exhausted_raises():
    store_cluster = SimulatedCluster(ClusterSpec(n_nodes=1))
    store_cluster.object_store.put("bucket", "k0", b"x", 100)
    plan = FaultPlan(seed=2, retry_policy=RetryPolicy(max_attempts=2))
    plan.fail_s3(1.0, max_failures_per_key=5)
    store_cluster.install_faults(plan)
    with pytest.raises(S3RetriesExhaustedError):
        store_cluster.s3.get("bucket", "k0")


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

def _faulty_run(seed):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=2))
    cluster.install_recovery(spark_recovery())
    plan = FaultPlan(seed=seed).crash_node(
        "node-1", at_time=3.0, restart_after=5.0
    ).fail_tasks(0.3, max_failures_per_task=2).slow_node("node-0", 1.5)
    cluster.install_faults(plan)
    tasks = [Task(f"t{i}", duration=2.0 + i * 0.25,
                  op=PSEUDO_OVERHEAD) for i in range(24)]
    cluster.run(tasks)
    return cluster


def test_same_seed_reproduces_the_run_exactly():
    a, b = _faulty_run(11), _faulty_run(11)
    assert a.now == b.now
    assert a.node_summaries() == b.node_summaries()


def test_different_seed_changes_the_fault_schedule():
    a, b = _faulty_run(11), _faulty_run(12)
    assert a.node_summaries() != b.node_summaries()
