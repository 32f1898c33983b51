"""Straggler spread and group totals, read from the task records a
run keeps."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.cluster.faults import FaultPlan, spark_recovery
from repro.obs import (
    default_grouper,
    format_breakdown,
    records_of,
    straggler_rows,
    summarize_records,
)
from repro.obs.spans import PSEUDO_OVERHEAD, Span, TaskRecord


@pytest.fixture
def cluster():
    return SimulatedCluster(ClusterSpec(n_nodes=2))


def straggler_run(cluster):
    tasks = [Task(f"work-{i}", duration=1.0, op=PSEUDO_OVERHEAD) for i in range(7)]
    tasks.append(Task("work-7", duration=9.0, op=PSEUDO_OVERHEAD))  # the straggler
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
    tasks = [Task(f"reduce-{i}", duration=1.0, op=PSEUDO_OVERHEAD) for i in range(2)]
    tasks += [Task(f"map-{i}", duration=2.0, op=PSEUDO_OVERHEAD) for i in range(4)]
    with cluster.obs.span("stage"):  # the span does not regroup them
        cluster.run(tasks)
    rows = straggler_rows(records_of(cluster))
    # Largest total busy time first.
    assert [(r["group"], r["tasks"], r["mean_s"]) for r in rows] == [
        ("map", 4, 2.0), ("reduce", 2, 1.0)]


def test_master_charge_and_dead_attempt_are_not_tasks(cluster):
    cluster.install_recovery(spark_recovery())
    cluster.install_faults(FaultPlan().crash_node("node-1", at_time=5.0))
    cluster.charge_master(100.0, label="work-startup", op=PSEUDO_OVERHEAD)
    cluster.run([Task(f"work-{i}", duration=10.0,
                      op=PSEUDO_OVERHEAD) for i in range(16)])
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
    cluster.run([Task("solo", duration=1.0, op=PSEUDO_OVERHEAD)])
    assert "Straggler spread" not in format_breakdown(cluster)


# ----------------------------------------------------------------------
# summarize_records against the per-field dictionaries it replaced
# ----------------------------------------------------------------------

def _reference_summarize_records(records, grouper=None):
    """``summarize_records`` as it was: five dictionaries filled through
    ``group_of``, one lookup per field per record."""
    def group_of(record):
        if grouper is not None:
            return grouper(record.name)
        if record.span is not None:
            return record.span.name
        return default_grouper(record.name)

    busy = defaultdict(float)
    count = defaultdict(int)
    first = {}
    last = {}
    longest = defaultdict(float)
    for record in records:
        group = group_of(record)
        duration = record.end - record.start
        busy[group] += duration
        count[group] += 1
        first[group] = min(first.get(group, record.start), record.start)
        last[group] = max(last.get(group, record.end), record.end)
        longest[group] = max(longest[group], duration)
    rows = [
        {
            "group": group,
            "busy_s": busy[group],
            "tasks": count[group],
            "first_start": first[group],
            "last_end": last[group],
            "mean_task_s": busy[group] / count[group],
            "max_task_s": longest[group],
        }
        for group in busy
    ]
    rows.sort(key=lambda r: -r["busy_s"])
    return rows


SPANS = [None, Span(0, "stage-a", 0.0), Span(1, "stage-b", 0.0)]
# Times that do not add exactly, zero-length extents, ties and both
# zeros included, so a sum taken in another order or a tie broken the
# other way shows.
times = st.one_of(st.integers(0, 8).map(lambda i: i * 0.5),
                  st.floats(0.0, 1e4, allow_nan=False), st.just(-0.0))


@st.composite
def filed_records(draw):
    records = []
    for _ in range(draw(st.integers(0, 30))):
        start = draw(times)
        record = TaskRecord(
            draw(st.sampled_from(("map-1", "map-2", "reduce-10", "solo"))),
            "node-0", start, start + draw(times), op=PSEUDO_OVERHEAD,
        )
        record.span = draw(st.sampled_from(SPANS))
        records.append(record)
    return records


@given(filed_records(), st.sampled_from((None, default_grouper, len)))
@settings(max_examples=200, deadline=None)
def test_summarize_records_matches_the_reference_bit_for_bit(records,
                                                             grouper):
    ours = summarize_records(records, grouper)
    # ``repr`` tells every float apart, -0.0 from 0.0 included.
    assert repr(ours) == repr(_reference_summarize_records(records, grouper))
