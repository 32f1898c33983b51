"""Chrome trace_event export: golden file and structural validity.

The golden file pins the exporter's output for a miniature neuro run
(1 subject, 2 nodes, Spark).  The simulator is deterministic, so any
diff is a real behavior change; regenerate intentionally with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/obs/test_chrome_trace.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.harness import experiments as E
from repro.harness.runner import neuro_subjects, observe_clusters
from repro.obs import chrome_trace, write_chrome_trace

GOLDEN = Path(__file__).parent / "golden" / "tiny-neuro-trace.json"

#: Small enough that the golden file stays reviewable.
TINY_PROFILE = {"scale": 12, "n_volumes": 12}


@pytest.fixture(scope="module")
def tiny_neuro_run():
    """The cluster of one miniature neuro run."""
    captured = []
    with observe_clusters(captured.append):
        E.run_neuro_end_to_end(
            "spark", neuro_subjects(1, **TINY_PROFILE), n_nodes=2
        )
    (cluster,) = captured
    return cluster


def test_golden_trace(tiny_neuro_run):
    # Round-trip through JSON so tuples/containers normalize exactly as
    # write_chrome_trace would serialize them.
    document = json.loads(json.dumps(chrome_trace(tiny_neuro_run)))
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN.read_text())
    assert document == golden


def test_trace_structure_valid(tiny_neuro_run):
    cluster = tiny_neuro_run
    document = chrome_trace(cluster)
    events = document["traceEvents"]
    assert events
    assert set(document) == {"traceEvents", "displayTimeUnit", "otherData"}

    n_nodes = document["otherData"]["nodes"]
    span_pid = n_nodes  # one process per node, then the span process
    for event in events:
        assert event["ph"] in ("M", "X", "C")
        assert 0 <= event["pid"] <= span_pid
        if event["ph"] == "X":
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert event["ts"] + event["dur"] <= cluster.now * 1e6 + 1e-3

    # Metadata names every process.
    named = {e["pid"] for e in events if e["ph"] == "M"}
    assert named == set(range(span_pid + 1))

    # Task lanes never overlap within one (pid, tid) track.
    tracks = {}
    for event in events:
        if event["ph"] == "X" and event["pid"] < n_nodes:
            tracks.setdefault((event["pid"], event["tid"]), []).append(
                (event["ts"], event["ts"] + event["dur"])
            )
    for intervals in tracks.values():
        intervals.sort()
        for (_, prev_end), (start, _) in zip(intervals, intervals[1:]):
            assert start >= prev_end - 1e-3

    # Spans made it into their dedicated process.
    span_events = [
        e for e in events if e["ph"] == "X" and e["pid"] == span_pid
    ]
    assert span_events
    assert all(e["name"].startswith("spark-stage") for e in span_events)


def test_tiny_run_metrics_nonzero(tiny_neuro_run):
    cluster = tiny_neuro_run
    assert cluster.network.bytes_from_s3 > 0
    assert cluster.network.bytes_node_to_node > 0
    rows = cluster.node_summaries()
    assert all(row["peak_memory_bytes"] > 0 for row in rows)


def test_memory_counter_tracks_follow_the_trackers(tiny_neuro_run):
    """Per node, the ``memory used`` track rises to that node's peak,
    never runs backwards in time, and ends where the tracker stands."""
    cluster = tiny_neuro_run
    tracks = {}
    for event in chrome_trace(cluster)["traceEvents"]:
        if event["ph"] == "C":
            assert event["name"] == "memory used"
            tracks.setdefault(event["pid"], []).append(
                (event["ts"], event["args"]["bytes"]))
    assert sorted(tracks) == list(range(len(cluster.node_order)))
    for pid, summary in enumerate(cluster.node_summaries()):
        times = [ts for ts, _level in tracks[pid]]
        levels = [level for _ts, level in tracks[pid]]
        assert times == sorted(times)
        assert max(levels) == summary["peak_memory_bytes"]
        assert min(levels) >= 0
        assert levels[-1] == summary["used_memory_bytes"]


def test_shuffle_bytes_counted():
    cluster = SimulatedCluster(ClusterSpec(n_nodes=2))
    mb32 = 32 * 1024 ** 2
    a = Task("a", fn=lambda: 1, duration=1.0, node="node-0",
             output_bytes=mb32)
    b = Task("b", fn=lambda x: x, args=(a,), duration=1.0, node="node-1")
    cluster.run([b])
    assert cluster.network.bytes_node_to_node == mb32


def test_write_chrome_trace_roundtrip(tiny_neuro_run, tmp_path):
    path = write_chrome_trace(tiny_neuro_run, tmp_path / "trace.json")
    document = json.loads(Path(path).read_text())
    assert document["traceEvents"]
