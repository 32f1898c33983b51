"""Tests for the network fabric model."""

import pytest

from repro.cluster.costs import CostModel
from repro.cluster.network import NetworkModel


@pytest.fixture
def net():
    return NetworkModel(CostModel())


def test_same_node_transfer_is_memcpy(net):
    cm = CostModel()
    t = net.transfer_time(10 ** 9, "node-0", "node-0")
    assert t == pytest.approx(10 ** 9 * cm.memcpy_per_byte)
    assert net.bytes_node_to_node == 0


def test_cross_node_transfer(net):
    cm = CostModel()
    t = net.transfer_time(10 ** 9, "node-0", "node-1")
    expected = cm.network_latency + 10 ** 9 / cm.network_bandwidth
    assert t == pytest.approx(expected)
    assert net.bytes_node_to_node == 10 ** 9


def test_transfer_faster_than_s3(net):
    """Intra-cluster links beat S3 download for the same payload."""
    nbytes = 10 ** 9
    assert net.transfer_time(nbytes, "a", "b") < net.s3_download_time(nbytes)


def test_s3_latency_per_object(net):
    one = net.s3_download_time(10 ** 6, n_objects=1)
    many = NetworkModel(CostModel()).s3_download_time(10 ** 6, n_objects=100)
    assert many > one


def test_broadcast_scales_logarithmically(net):
    small = net.broadcast_time(10 ** 6, 2)
    big = net.broadcast_time(10 ** 6, 64)
    # 64 nodes is 6 rounds vs 1: far less than 32x.
    assert big < 10 * small


def test_broadcast_single_node_free(net):
    assert net.broadcast_time(10 ** 9, 1) == 0.0


def test_negative_bytes_rejected(net):
    with pytest.raises(ValueError):
        net.transfer_time(-1, "a", "b")
    with pytest.raises(ValueError):
        net.s3_download_time(-1)
