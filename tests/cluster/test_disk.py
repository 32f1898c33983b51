"""Tests for the per-node disk model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.disk import LocalDisk
from repro.cluster.errors import DiskFullError


@pytest.fixture
def disk():
    return LocalDisk("node-0", capacity_bytes=1000)


def test_overwrite_releases_old_space(disk):
    disk.write("f", 800)
    disk.write("f", 900)  # would not fit without release
    assert disk.size_of("f") == 900
    assert disk.used_bytes == 900


def test_disk_full(disk):
    disk.write("a", 900)
    with pytest.raises(DiskFullError) as info:
        disk.write("b", 200)
    assert (info.value.requested_bytes, info.value.available_bytes) \
        == (200, 100)
    # A refused write changes nothing.
    assert disk.used_bytes == 900
    with pytest.raises(KeyError):
        disk.size_of("b")


def test_disk_full_counts_the_space_an_overwrite_releases(disk):
    disk.write("a", 600)
    disk.write("b", 300)
    with pytest.raises(DiskFullError) as info:
        disk.write("a", 800)
    assert info.value.available_bytes == 700
    assert disk.size_of("a") == 600


def test_delete(disk):
    disk.write("x", 50)
    disk.delete("x")
    assert disk.used_bytes == 0
    with pytest.raises(KeyError):
        disk.delete("x")


def test_wipe_then_late_deletes_are_silent_once(disk):
    """A disk-losing crash destroys every entry; an owner that survived
    it may still delete what it stored, once."""
    disk.write("a", 100)
    disk.write("b", 250)
    assert disk.wipe() == 350
    assert disk.used_bytes == 0
    assert disk.available_bytes == 1000
    disk.delete("a")  # destroyed by the wipe: a no-op
    with pytest.raises(KeyError):
        disk.delete("a")
    disk.write("b", 10)  # a path may be written again after the wipe
    disk.delete("b")
    assert disk.used_bytes == 0


def test_a_path_written_after_a_wipe_is_deleted_once(disk):
    """A write after the wipe makes the path live again: its first
    delete removes it, and a second one has nothing left to delete."""
    disk.write("a", 100)
    disk.wipe()
    disk.write("a", 40)
    disk.delete("a")
    assert disk.used_bytes == 0
    with pytest.raises(KeyError):
        disk.delete("a")


def test_io_statistics(disk):
    disk.write("a", 100)
    disk.write("a", 50)
    assert disk.bytes_written == 150
    assert disk.bytes_read == 0


def test_size_of(disk):
    disk.write("a", 123)
    assert disk.size_of("a") == 123


def test_negative_write_rejected(disk):
    with pytest.raises(ValueError):
        disk.write("a", -5)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.sampled_from("abc"),
                  st.integers(0, 600)),
        st.tuples(st.just("delete"), st.sampled_from("abc"), st.none()),
        st.tuples(st.just("wipe"), st.none(), st.none()),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_running_total_matches_a_recount(ops):
    """``used_bytes`` is kept as a running total; it must equal the sum
    a model that stores every entry's size recounts, and every refusal
    must fall where the model's would."""
    disk = LocalDisk("node-0", capacity_bytes=1000)
    sizes, wiped = {}, set()
    for op, path, nbytes in ops:
        if op == "write":
            free = 1000 - sum(sizes.values()) + sizes.get(path, 0)
            if nbytes > free:
                with pytest.raises(DiskFullError):
                    disk.write(path, nbytes)
                continue
            disk.write(path, nbytes)
            sizes[path] = nbytes
            wiped.discard(path)
        elif op == "delete":
            if path in sizes:
                disk.delete(path)
                del sizes[path]
            elif path in wiped:
                disk.delete(path)
                wiped.discard(path)
            else:
                with pytest.raises(KeyError):
                    disk.delete(path)
        else:
            assert disk.wipe() == sum(sizes.values())
            wiped.update(sizes)
            sizes.clear()
        assert disk.used_bytes == sum(sizes.values())
        assert disk.available_bytes == 1000 - disk.used_bytes
