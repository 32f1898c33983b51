"""Tests for per-node memory accounting."""

import pytest

from repro.cluster.errors import OutOfMemoryError
from repro.cluster.memory import MemoryTracker


@pytest.fixture
def tracker():
    return MemoryTracker("node-0", capacity_bytes=1000)


def test_allocate_and_free(tracker):
    alloc = tracker.allocate(400)
    assert tracker.used_bytes == 400
    assert tracker.available_bytes == 600
    tracker.free(alloc)
    assert tracker.used_bytes == 0


def test_oom_raises_with_context(tracker):
    tracker.allocate(900)
    with pytest.raises(OutOfMemoryError) as excinfo:
        tracker.allocate(200, label="big-volume")
    assert excinfo.value.requested_bytes == 200
    assert excinfo.value.available_bytes == 100
    assert "big-volume" in str(excinfo.value)
    assert tracker.oom_count == 1


def test_exact_fit_succeeds(tracker):
    tracker.allocate(1000)
    assert tracker.available_bytes == 0


def test_would_fit(tracker):
    tracker.allocate(600)
    assert tracker.would_fit(400)
    assert not tracker.would_fit(401)


def test_double_free_rejected(tracker):
    alloc = tracker.allocate(10)
    tracker.free(alloc)
    with pytest.raises(KeyError):
        tracker.free(alloc)


def test_negative_allocation_rejected(tracker):
    with pytest.raises(ValueError):
        tracker.allocate(-1)


def test_peak_tracking(tracker):
    a = tracker.allocate(500)
    tracker.allocate(300)
    tracker.free(a)
    tracker.allocate(100)
    assert tracker.peak_bytes == 800


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        MemoryTracker("n", 0)
