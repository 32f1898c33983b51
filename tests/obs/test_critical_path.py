"""Tests for critical-path reconstruction, blame, and the run ledger."""

import json

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.cluster.costs import DEFAULT_COST_MODEL
from repro.obs import (
    chrome_trace,
    compare_snapshots,
    compute_critical_path,
    format_compare,
    format_critical_path,
    load_snapshot,
    run_snapshot,
    write_snapshot,
)
from repro.obs.critical_path import EXTENT_KINDS
from repro.obs.spans import PSEUDO_OVERHEAD


def make_cluster(n_nodes=2, **spec_kwargs):
    return SimulatedCluster(ClusterSpec(n_nodes=n_nodes, **spec_kwargs))


def assert_tiles(path):
    """Segments must cover [epoch, end] exactly, in order, gap-free."""
    cursor = path.epoch
    for segment in path.segments:
        assert segment.start == pytest.approx(cursor, abs=1e-6)
        assert segment.end >= segment.start
        cursor = segment.end
    assert cursor == pytest.approx(path.end, abs=1e-6)


class TestComputeCriticalPath:
    def test_empty_cluster(self):
        path = compute_critical_path(make_cluster())
        assert path.segments == []
        assert path.makespan == 0.0
        assert path.blame() == []

    def test_pure_chain_equals_makespan(self):
        cluster = make_cluster(n_nodes=1)
        tasks = []
        for i in range(5):
            deps = (tasks[-1],) if tasks else ()
            tasks.append(Task(f"step-{i}", duration=float(i + 1), deps=deps,
                              op=PSEUDO_OVERHEAD))
        cluster.run(tasks)
        path = compute_critical_path(cluster)
        assert path.makespan == pytest.approx(cluster.now)
        assert path.path_length == pytest.approx(path.makespan)
        assert path.idle_s == pytest.approx(0.0)
        assert_tiles(path)

    def test_fan_out_path_bounded_by_makespan(self):
        cluster = make_cluster(n_nodes=2)
        tasks = [Task(f"fan-{i}", duration=1.0 + i,
                      op=PSEUDO_OVERHEAD) for i in range(6)]
        sink = Task("sink", duration=2.0, deps=tuple(tasks), op=PSEUDO_OVERHEAD)
        cluster.run(tasks + [sink])
        path = compute_critical_path(cluster)
        assert path.path_length <= path.makespan + 1e-9
        assert_tiles(path)

    def test_blame_fractions_sum_to_one(self):
        cluster = make_cluster(n_nodes=2)
        cluster.charge_master(1.5, label="startup", category="eng-startup",
                              op=PSEUDO_OVERHEAD)
        cluster.run([Task(f"work-{i}", duration=2.0,
                          op=PSEUDO_OVERHEAD) for i in range(5)])
        path = compute_critical_path(cluster)
        total = sum(row["fraction"] for row in path.blame())
        assert total == pytest.approx(1.0)
        assert_tiles(path)

    def test_explicit_category_wins_over_prefix(self):
        cluster = make_cluster(n_nodes=1)
        cluster.run([
            Task("engine-op-0", duration=1.0, category="engine-special",
                 op=PSEUDO_OVERHEAD),
        ])
        path = compute_critical_path(cluster)
        assert {row["category"] for row in path.blame()} == {"engine-special"}

    def test_dispatch_delay_attributed(self):
        cluster = make_cluster(n_nodes=1)
        cluster.run([Task("late", duration=1.0, not_before=3.0, op=PSEUDO_OVERHEAD)])
        path = compute_critical_path(cluster)
        kinds = {s.kind for s in path.segments}
        assert "dispatch-delay" in kinds
        delay = sum(
            s.duration for s in path.segments if s.kind == "dispatch-delay"
        )
        assert delay == pytest.approx(3.0)
        assert_tiles(path)

    def test_memory_wait_attributed(self):
        cluster = make_cluster(n_nodes=1)
        per_task = int(cluster.spec.node.memory_bytes * 0.9)
        cluster.run([
            Task(f"big-{i}", duration=1.0, memory_bytes=per_task,
                 on_oom="wait", op=PSEUDO_OVERHEAD)
            for i in range(3)
        ])
        path = compute_critical_path(cluster)
        assert "memory-wait" in {s.kind for s in path.segments}
        assert sum(r["fraction"] for r in path.blame()) == pytest.approx(1.0)
        assert_tiles(path)

    def test_coordinator_gap_joins_path(self):
        cluster = make_cluster(n_nodes=1)
        cluster.run([Task("first", duration=2.0, op=PSEUDO_OVERHEAD)])
        cluster.charge_master(1.0, label="between runs", category="coord",
                              op=PSEUDO_OVERHEAD)
        cluster.run([Task("second", duration=2.0, op=PSEUDO_OVERHEAD)])
        path = compute_critical_path(cluster)
        assert path.path_length == pytest.approx(5.0)
        assert "coord" in {row["category"] for row in path.blame()}
        assert_tiles(path)

    def test_gap_behind_a_followed_dependency_is_tiled(self):
        """A dependency inside the binding tolerance may end short of
        the frontier: the walk must cover ``[dep.end, frontier]`` too."""
        cluster = make_cluster(n_nodes=1)
        t0 = Task("task-0", duration=0.0, op=PSEUDO_OVERHEAD)
        t1 = Task("task-1", duration=0.0, not_before=2 ** -24, op=PSEUDO_OVERHEAD)
        t3 = Task("task-3", duration=0.0, deps=(t0, t1), op=PSEUDO_OVERHEAD)
        cluster.run([t0, t1, t3])
        path = compute_critical_path(cluster)
        assert path.makespan == 2 ** -24
        assert path.segments[0].start == path.epoch
        assert path.segments[-1].end == path.end
        for before, after in zip(path.segments, path.segments[1:]):
            assert before.end == after.start
        total = sum(row["fraction"] for row in path.blame())
        assert total == pytest.approx(1.0)

    def test_record_for_maps_extent_segments(self):
        cluster = make_cluster(n_nodes=1)
        cluster.run([Task("solo", duration=1.0, op=PSEUDO_OVERHEAD)])
        path = compute_critical_path(cluster)
        for segment in path.segments:
            record = path.record_for(segment)
            if segment.kind in EXTENT_KINDS:
                assert record is not None
                assert record.name == segment.name

    def test_format_report(self):
        cluster = make_cluster(n_nodes=1)
        cluster.run([Task("solo", duration=4.0, op=PSEUDO_OVERHEAD)])
        text = format_critical_path(compute_critical_path(cluster))
        assert "Critical path" in text
        assert "solo" in text or "100.0%" in text


class TestChromeTraceFlowEvents:
    def test_flow_events_only_with_critical_path(self):
        cluster = make_cluster(n_nodes=1)
        a = Task("first", duration=1.0, op=PSEUDO_OVERHEAD)
        b = Task("second", duration=1.0, deps=(a,), op=PSEUDO_OVERHEAD)
        cluster.run([a, b])
        plain = chrome_trace(cluster)
        assert all(e["ph"] in ("M", "X", "C") for e in plain["traceEvents"])

        path = compute_critical_path(cluster)
        doc = chrome_trace(cluster, critical_path=path)
        flows = [e for e in doc["traceEvents"]
                 if e.get("cat") == "critical-path"]
        assert flows, "expected flow events along the path"
        assert {e["ph"] for e in flows} == {"s", "f"}
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        ends = {e["id"] for e in flows if e["ph"] == "f"}
        assert starts == ends


class TestLedger:
    def snapshot(self, slow=1.0):
        from repro.harness.figures import grid
        from repro.harness.runner import observe_clusters
        from repro.obs.ledger import experiment_snapshot

        orig = DEFAULT_COST_MODEL.nlmeans_per_voxel
        clusters = []
        try:
            # CostModel is frozen; go around it for the fault injection.
            object.__setattr__(
                DEFAULT_COST_MODEL, "nlmeans_per_voxel", orig * slow
            )
            with observe_clusters(clusters.append):
                grid("fig12c", True, count=1,
                     profile={"scale": 12, "n_volumes": 12},
                     system=("spark",))
        finally:
            object.__setattr__(DEFAULT_COST_MODEL, "nlmeans_per_voxel", orig)
        runs = [
            run_snapshot(cluster, label=f"{i:02d}")
            for i, cluster in enumerate(clusters)
        ]
        return experiment_snapshot("fig12c", runs, quick=True)

    def test_round_trip(self, tmp_path):
        snapshot = self.snapshot()
        path = tmp_path / "fig12c-quick.json"
        write_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert loaded == json.loads(json.dumps(snapshot))

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 999}')
        with pytest.raises(ValueError, match="schema_version"):
            load_snapshot(path)

    def test_identical_snapshots_within_tolerance(self):
        snapshot = self.snapshot()
        report = compare_snapshots(snapshot, snapshot)
        assert not report["makespan"]["regression"]
        assert not report["blame_regressions"]
        assert not report["warnings"]

    def test_slowed_denoise_blamed(self, tmp_path):
        """Acceptance: an 8x denoise cost shows up as denoise blame."""
        from repro.harness.__main__ import main

        base = self.snapshot()
        slow = self.snapshot(slow=8.0)
        base_path = tmp_path / "base.json"
        slow_path = tmp_path / "slow.json"
        write_snapshot(base, base_path)
        write_snapshot(slow, slow_path)

        report = compare_snapshots(base, slow)
        assert report["makespan"]["regression"]
        top = report["blame_deltas"][0]
        assert "denoise" in top["category"]
        assert top["share_of_delta"] > 0.9

        rc = main(["compare", str(base_path), str(slow_path), "--json"])
        assert rc == 1

    def test_spill_warning_when_candidate_only(self):
        base = self.snapshot()
        candidate = json.loads(json.dumps(base))
        candidate["memory"]["spilled_bytes"] = 1 << 20
        candidate["memory"]["oom_count"] = 2
        report = compare_snapshots(base, candidate)
        assert len(report["warnings"]) == 2
        text = format_compare(report)
        assert "WARNING" in text


class TestTraceCli:
    def test_trace_json_snapshot(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        out = tmp_path / "trace.json"
        rc = main([
            "trace", "neuro", "--quick", "--subjects", "1",
            "--nodes", "2", "--json", "--critical-path",
            "--out", str(out),
        ])
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["label"] == "neuro"
        blame = snapshot["critical_path"]["blame"]
        assert sum(row["fraction"] for row in blame) == pytest.approx(
            1.0, abs=1e-4
        )
        doc = json.loads(out.read_text())
        assert any(
            e.get("cat") == "critical-path" for e in doc["traceEvents"]
        )
