"""Straggler spread, read from the task records a run keeps."""

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.cluster.faults import FaultPlan, spark_recovery
from repro.obs import format_breakdown, records_of, straggler_rows


@pytest.fixture
def cluster():
    return SimulatedCluster(ClusterSpec(n_nodes=2))


def straggler_run(cluster):
    tasks = [Task(f"work-{i}", duration=1.0) for i in range(7)]
    tasks.append(Task("work-7", duration=9.0))  # the straggler
    cluster.run(tasks)


def test_straggler_rows_report_skew(cluster):
    straggler_run(cluster)
    (row,) = straggler_rows(records_of(cluster))
    assert row["group"] == "work"
    assert row["tasks"] == 8
    assert row["mean_s"] == 2.0
    assert row["p95_s"] == 9.0
    assert row["max_s"] == 9.0
    assert row["skew"] == pytest.approx(9.0 / 2.0)


def test_straggler_rows_group_by_name_prefix(cluster):
    tasks = [Task(f"reduce-{i}", duration=1.0) for i in range(2)]
    tasks += [Task(f"map-{i}", duration=2.0) for i in range(4)]
    with cluster.obs.span("stage"):  # the span does not regroup them
        cluster.run(tasks)
    rows = straggler_rows(records_of(cluster))
    # Largest total busy time first.
    assert [(r["group"], r["tasks"], r["mean_s"]) for r in rows] == [
        ("map", 4, 2.0), ("reduce", 2, 1.0)]


def test_master_charge_and_dead_attempt_are_not_tasks(cluster):
    cluster.install_recovery(spark_recovery())
    cluster.install_faults(FaultPlan().crash_node("node-1", at_time=5.0))
    cluster.charge_master(100.0, label="work-startup")
    cluster.run([Task(f"work-{i}", duration=10.0) for i in range(16)])
    killed = cluster.node("node-1").failed_tasks
    assert killed == 8
    records = records_of(cluster)
    assert len(records) == 1 + killed + 16
    (row,) = straggler_rows(records)
    assert (row["group"], row["tasks"], row["max_s"]) == ("work", 16, 10.0)


def test_breakdown_prints_the_straggler_section(cluster):
    straggler_run(cluster)
    report = format_breakdown(cluster).splitlines()
    at = report.index("Straggler spread (max/mean per group):")
    assert report[at + 1:] == [
        "  work   mean 2.00s  p95 9.00s  max 9.00s  skew 4.5x",
    ]


def test_breakdown_skips_single_task_groups(cluster):
    cluster.run([Task("solo", duration=1.0)])
    assert "Straggler spread" not in format_breakdown(cluster)
