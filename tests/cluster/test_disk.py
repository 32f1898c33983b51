"""Tests for the per-node disk model."""

import pytest

from repro.cluster.disk import LocalDisk
from repro.cluster.errors import DiskFullError


@pytest.fixture
def disk():
    return LocalDisk("node-0", capacity_bytes=1000)


def test_overwrite_releases_old_space(disk):
    disk.write("f", "v1", 800)
    disk.write("f", "v2", 900)  # would not fit without release
    assert disk.size_of("f") == 900
    assert disk.used_bytes == 900


def test_disk_full(disk):
    disk.write("a", None, 900)
    with pytest.raises(DiskFullError):
        disk.write("b", None, 200)


def test_delete(disk):
    disk.write("x", 1, 50)
    disk.delete("x")
    assert disk.used_bytes == 0
    with pytest.raises(KeyError):
        disk.delete("x")


def test_io_statistics(disk):
    disk.write("a", 1, 100)
    disk.write("a", 2, 50)
    assert disk.bytes_written == 150
    assert disk.bytes_read == 0


def test_size_of(disk):
    disk.write("a", 1, 123)
    assert disk.size_of("a") == 123


def test_negative_write_rejected(disk):
    with pytest.raises(ValueError):
        disk.write("a", 1, -5)
