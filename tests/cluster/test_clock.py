"""Tests for the virtual clock."""

import pytest

from repro.cluster.clock import VirtualClock


def test_starts_at_zero():
    assert VirtualClock().now == 0.0


def test_custom_start():
    assert VirtualClock(5.0).now == 5.0


def test_negative_start_rejected():
    with pytest.raises(ValueError):
        VirtualClock(-1.0)


def test_advance_to():
    clock = VirtualClock()
    clock.advance_to(3.5)
    assert clock.now == 3.5


def test_advance_by():
    clock = VirtualClock(1.0)
    clock.advance_by(2.0)
    assert clock.now == 3.0


def test_cannot_move_backwards():
    clock = VirtualClock(10.0)
    with pytest.raises(ValueError):
        clock.advance_to(9.0)


def test_cannot_advance_by_negative():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        clock.advance_by(-0.1)


def test_advance_to_same_time_is_noop():
    clock = VirtualClock(4.0)
    clock.advance_to(4.0)
    assert clock.now == 4.0


def test_nan_rejected():
    clock = VirtualClock(2.0)
    with pytest.raises(ValueError):
        clock.advance_to(float("nan"))
    with pytest.raises(ValueError):
        clock.advance_by(float("nan"))
    assert clock.now == 2.0
