"""Tests for node and cluster specifications."""

import pytest

from repro.cluster.spec import GB, R3_2XLARGE, ClusterSpec, NodeSpec


def test_r3_2xlarge_matches_paper():
    """Section 5: 8 vCPU, 61 GB memory, 160 GB SSD."""
    assert R3_2XLARGE.cores == 8
    assert R3_2XLARGE.memory_bytes == 61 * GB
    assert R3_2XLARGE.disk_bytes == 160 * GB


def test_nodespec_validation():
    with pytest.raises(ValueError):
        NodeSpec("bad", cores=0, memory_bytes=GB, disk_bytes=GB)
    with pytest.raises(ValueError):
        NodeSpec("bad", cores=1, memory_bytes=0, disk_bytes=GB)
    with pytest.raises(ValueError):
        NodeSpec("bad", cores=1, memory_bytes=GB, disk_bytes=-1)


def test_default_cluster_slots():
    spec = ClusterSpec(n_nodes=16)
    assert spec.slots_per_node == 8
    assert spec.total_slots == 128


def test_worker_shaped_cluster():
    spec = ClusterSpec(n_nodes=16, workers_per_node=4, slots_per_worker=1)
    assert spec.slots_per_node == 4
    assert spec.total_slots == 64


def test_oversubscribed_workers_get_one_slot_each():
    spec = ClusterSpec(n_nodes=2, workers_per_node=16)
    assert spec.slots_per_node == 16


def test_node_names_deterministic():
    spec = ClusterSpec(n_nodes=3)
    assert spec.node_names() == ["node-0", "node-1", "node-2"]


def test_invalid_cluster_sizes():
    with pytest.raises(ValueError):
        ClusterSpec(n_nodes=0)
    with pytest.raises(ValueError):
        ClusterSpec(n_nodes=1, workers_per_node=0)
    with pytest.raises(ValueError):
        ClusterSpec(n_nodes=1, slots_per_worker=0)

