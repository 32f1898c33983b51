"""Unit tests for the harness self-telemetry plane (``repro.obs.telemetry``)."""

import pytest

from repro.obs import telemetry
from repro.obs.telemetry import (
    NULL_RECORDER,
    PhaseRecorder,
    recorder,
    recording,
    telemetry_phase,
)


class FakeClock:
    """Deterministic perf counter: advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_nested_phases_self_time_tiles_wall():
    clock = FakeClock()
    rec = PhaseRecorder(clock=clock)
    with rec.phase("outer"):
        clock.tick(1.0)
        with rec.phase("inner"):
            clock.tick(2.0)
        clock.tick(0.5)
    totals = rec.phase_totals()
    assert totals["inner"]["wall_s"] == pytest.approx(2.0)
    assert totals["inner"]["self_s"] == pytest.approx(2.0)
    assert totals["outer"]["wall_s"] == pytest.approx(3.5)
    # Outer self-time excludes the nested phase: 1.0 + 0.5.
    assert totals["outer"]["self_s"] == pytest.approx(1.5)
    # Self-times tile the outer wall exactly.
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(3.5)


def test_metrics_counters_gauges_histograms():
    rec = PhaseRecorder()
    rec.count("cache.hits")
    rec.count("cache.hits", 2)
    rec.gauge("pool.utilization", 0.75)
    for value in (1.0, 3.0):
        rec.observe("payload_bytes", value)
    snap = rec.metrics.snapshot()
    assert snap["cache.hits"] == 3
    assert snap["pool.utilization"] == 0.75
    assert snap["payload_bytes.count"] == 2
    assert snap["payload_bytes.mean"] == pytest.approx(2.0)
    assert snap["payload_bytes.max"] == 3.0


def test_null_recorder_is_default_and_inert():
    assert recorder() is NULL_RECORDER
    assert not NULL_RECORDER.active
    # All operations are no-ops that do not raise.
    with telemetry_phase("anything"):
        pass
    NULL_RECORDER.count("x")
    NULL_RECORDER.gauge("x", 1)
    NULL_RECORDER.observe("x", 1)
    assert NULL_RECORDER.phase_totals() == {}


def test_recording_scope_activates_and_restores():
    assert recorder() is NULL_RECORDER
    with recording() as rec:
        assert recorder() is rec
        assert rec.active
        with telemetry_phase("scoped"):
            pass
        assert [p["name"] for p in rec.phases] == ["scoped"]
    assert recorder() is NULL_RECORDER


def test_recording_scopes_nest():
    with recording() as outer:
        with recording() as inner:
            assert recorder() is inner
        assert recorder() is outer


def test_profile_dir_env(monkeypatch):
    monkeypatch.delenv(telemetry.PROFILE_DIR_ENV, raising=False)
    assert telemetry.profile_dir() is None
    monkeypatch.setenv(telemetry.PROFILE_DIR_ENV, "/tmp/profiles")
    assert telemetry.profile_dir() == "/tmp/profiles"
