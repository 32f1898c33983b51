"""Property-based tests: fault injection never leaks resources.

Whatever combination of crashes, reboots, and transient failures a
seeded :class:`FaultPlan` throws at a run, the cluster must come out
clean: every slot released, every task-held memory reservation freed,
and a replay with the same seed bit-identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.cluster.errors import ClusterError
from repro.cluster.faults import FaultPlan, RetryPolicy, spark_recovery
from repro.obs.spans import PSEUDO_OVERHEAD

MB = 1024 ** 2

fault_schedules = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2 ** 16),
        "crash_node": st.sampled_from([None, "node-0", "node-1", "node-2"]),
        "crash_frac": st.floats(0.05, 0.95),
        "restart_after": st.sampled_from([None, 0.5, 5.0]),
        "lose_disk": st.booleans(),
        "fail_rate": st.floats(0.0, 0.6),
        "straggler": st.floats(1.0, 4.0),
        "n_tasks": st.integers(1, 24),
        "chain": st.booleans(),
        "mem_mb": st.integers(0, 64),
    }
)


def _run_schedule(params):
    """Build a cluster + DAG from drawn params and run it to the end.

    Returns the cluster; the run may or may not have raised.
    """
    cluster = SimulatedCluster(ClusterSpec(n_nodes=3))
    cluster.install_recovery(spark_recovery())
    plan = FaultPlan(
        seed=params["seed"],
        retry_policy=RetryPolicy(max_attempts=6, base_delay_s=0.1),
    )
    horizon = params["n_tasks"] * 2.0 + 1.0
    if params["crash_node"] is not None:
        plan.crash_node(
            params["crash_node"],
            at_time=params["crash_frac"] * horizon,
            restart_after=params["restart_after"],
            lose_disk=params["lose_disk"],
        )
    if params["fail_rate"] > 0:
        plan.fail_tasks(
            params["fail_rate"], detect_delay_s=0.2, max_failures_per_task=3
        )
    plan.slow_node("node-1", params["straggler"])
    cluster.install_faults(plan)

    tasks = []
    previous = None
    for i in range(params["n_tasks"]):
        deps = [previous] if params["chain"] and previous is not None else []
        previous = Task(
            f"t{i}",
            duration=1.0 + (i % 4) * 0.5,
            deps=deps,
            memory_bytes=params["mem_mb"] * MB,
            on_oom="wait", op=PSEUDO_OVERHEAD,
        )
        tasks.append(previous)

    raised = False
    try:
        cluster.run(tasks if not params["chain"] else [previous])
    except ClusterError:
        raised = True
    return cluster, raised


@given(fault_schedules)
@settings(max_examples=60, deadline=None)
def test_no_resident_memory_or_busy_slots_after_run(params):
    """After run() returns OR raises, nothing stays allocated.

    Tasks must not leak memory reservations or slots whether they
    completed, were killed by a crash, failed transiently, or died with
    the whole run; crashed nodes wiped their trackers outright.
    """
    cluster, _raised = _run_schedule(params)
    for row in cluster.node_summaries():
        assert row["used_memory_bytes"] == 0, row
    for node in cluster.nodes.values():
        assert node.busy_slots == 0, node.name


@given(fault_schedules)
@settings(max_examples=30, deadline=None)
def test_same_schedule_replays_bit_identically(params):
    a, a_raised = _run_schedule(params)
    b, b_raised = _run_schedule(params)
    assert a_raised == b_raised
    assert a.now == b.now
    assert a.node_summaries() == b.node_summaries()
    # Task ids are process-global, so compare by name.
    assert sorted(r.name for r in a.completed.values()) == sorted(
        r.name for r in b.completed.values()
    )
