"""Determinism of faulty runs, as observed through the ledger.

The same seed replays the same faulty run down to the serialized
snapshot bytes (so checked-in ledger baselines are stable), and another
seed does not.
"""

import json

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.cluster.faults import FaultPlan, RetryPolicy, spark_recovery
from repro.obs.ledger import run_snapshot


def _pipeline(cluster):
    """A two-stage DAG with a shuffle-like barrier in the middle."""
    stage1 = [
        Task(f"map{i}", fn=lambda i=i: i, duration=1.5 + (i % 3) * 0.5,
             output_bytes=10 * 1024 ** 2, category="map")
        for i in range(12)
    ]
    stage2 = [
        Task(f"reduce{j}", fn=lambda *a: sum(a), args=tuple(stage1),
             duration=2.0, deps=stage1, category="reduce")
        for j in range(4)
    ]
    cluster.run(stage2)


def _faulty_cluster(seed):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=3))
    cluster.install_recovery(spark_recovery())
    plan = FaultPlan(seed=seed, retry_policy=RetryPolicy(max_attempts=5))
    plan.crash_node("node-2", at_time=2.0, restart_after=4.0)
    plan.fail_tasks(0.25, detect_delay_s=0.3, max_failures_per_task=2)
    plan.slow_node("node-1", 1.5)
    cluster.install_faults(plan)
    _pipeline(cluster)
    return cluster


def _snapshot_bytes(cluster):
    return json.dumps(run_snapshot(cluster, label="prop"), sort_keys=True)


def test_same_seed_gives_byte_identical_snapshots():
    a = _snapshot_bytes(_faulty_cluster(seed=42))
    b = _snapshot_bytes(_faulty_cluster(seed=42))
    assert a == b


def test_different_seed_changes_the_snapshot():
    a = _snapshot_bytes(_faulty_cluster(seed=42))
    b = _snapshot_bytes(_faulty_cluster(seed=43))
    assert a != b
