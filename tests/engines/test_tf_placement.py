"""Tests for miniTF placement (the Figure 9 ``steps`` table)."""

import pytest

from repro.engines.tensorflow.placement import round_robin_steps

DEVICES = ["node-0", "node-1", "node-2"]


def test_round_robin_covers_all_items():
    steps = round_robin_steps(DEVICES, 8)
    flat = [index for step in steps for index, _d in step]
    assert sorted(flat) == list(range(8))


def test_round_robin_one_item_per_device_per_step():
    steps = round_robin_steps(DEVICES, 8)
    for step in steps:
        devices = [d for _i, d in step]
        assert len(devices) == len(set(devices))
        assert len(step) <= len(DEVICES)


def test_round_robin_step_count():
    assert len(round_robin_steps(DEVICES, 8)) == 3  # ceil(8/3)
    assert len(round_robin_steps(DEVICES, 3)) == 1
    assert round_robin_steps(DEVICES, 0) == []


def test_round_robin_needs_devices():
    with pytest.raises(ValueError):
        round_robin_steps([], 4)
