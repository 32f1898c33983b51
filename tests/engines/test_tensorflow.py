"""Tests for miniTensorFlow."""

import numpy as np
import pytest

from repro.cluster.errors import GraphTooLargeError
from repro.engines.tensorflow import Graph, Session, Tensor
from repro.engines.tensorflow.graph import GRAPH_SIZE_LIMIT
from repro.engines.tensorflow.ops import OpError
from repro.formats.sizing import SizedArray
from repro.obs.spans import PSEUDO_OVERHEAD


@pytest.fixture
def session(small_cluster):
    return Session(small_cluster)


def _feed(array, nominal=None):
    return SizedArray(array, nominal_shape=nominal)


def test_reduce_mean(session, rng):
    g = Graph()
    ph = g.placeholder((100, 100))
    out = g.reduce_mean(ph, axis=None)
    data = rng.random((10, 10))
    (result,) = session.run(g, [out], feed_dict={ph: _feed(data, (100, 100))},
                            op=PSEUDO_OVERHEAD)
    assert float(result.array) == pytest.approx(data.mean())


def test_reduce_axis_drops_nominal_dim(session, rng):
    g = Graph()
    ph = g.placeholder((100, 100, 50))
    out = g.reduce_mean(ph, axis=2)
    data = rng.random((4, 4, 5))
    (result,) = session.run(g, [out], feed_dict={ph: _feed(data, (100, 100, 50))},
                            op=PSEUDO_OVERHEAD)
    assert result.nominal_shape == (100, 100)
    assert np.allclose(result.array, data.mean(axis=2))


def test_gather_first_axis_only(session, rng):
    g = Graph()
    ph = g.placeholder((288, 10, 10))
    sel = g.gather(ph, indices=[0, 2], nominal_indices=list(range(18)))
    data = rng.random((4, 3, 3))
    (result,) = session.run(g, [sel], feed_dict={ph: _feed(data, (288, 10, 10))},
                            op=PSEUDO_OVERHEAD)
    assert np.allclose(result.array, data[[0, 2]])
    assert result.nominal_shape == (18, 10, 10)


def test_transpose(session, rng):
    g = Graph()
    ph = g.placeholder((10, 20, 30))
    out = g.transpose(ph, (2, 0, 1))
    data = rng.random((2, 3, 4))
    (result,) = session.run(g, [out], feed_dict={ph: _feed(data, (10, 20, 30))},
                            op=PSEUDO_OVERHEAD)
    assert result.array.shape == (4, 2, 3)
    assert result.nominal_shape == (30, 10, 20)


def test_reshape_is_expensive(session, rng):
    """Section 5.2.2: "reshaping is expensive compared with filtering"."""
    cm = session.cost_model
    nominal = (288, 145, 145, 174)
    data = rng.random((4, 4, 4, 4))

    g1 = Graph()
    ph1 = g1.placeholder(nominal)
    sel = g1.gather(ph1, [0], nominal_indices=list(range(18)))
    t0 = session.cluster.now
    session.run(g1, [sel], feed_dict={ph1: _feed(data, nominal)}, op=PSEUDO_OVERHEAD)
    gather_time = session.cluster.now - t0

    g2 = Graph()
    ph2 = g2.placeholder(nominal)
    flat = g2.reshape(ph2, new_nominal=(np.prod(nominal),), new_real=(256,))
    t0 = session.cluster.now
    session.run(g2, [flat], feed_dict={ph2: _feed(data, nominal)}, op=PSEUDO_OVERHEAD)
    reshape_time = session.cluster.now - t0
    assert reshape_time > gather_time


def test_conv3d(session, rng):
    from repro.algorithms.stencil import convolve3d

    g = Graph()
    ph = g.placeholder((20, 20, 20))
    kernel = rng.random((3, 3, 3))
    out = g.conv3d(ph, kernel)
    data = rng.random((6, 6, 6))
    (result,) = session.run(g, [out], feed_dict={ph: _feed(data, (20, 20, 20))},
                            op=PSEUDO_OVERHEAD)
    assert np.allclose(result.array, convolve3d(data, kernel))


def test_device_placement(session, rng):
    g = Graph()
    with g.device("node-2"):
        ph = g.placeholder((10,))
        out = g.reduce_mean(ph, axis=None)
    assert out.device == "node-2"
    session.run(g, [out], feed_dict={ph: _feed(rng.random(5))}, op=PSEUDO_OVERHEAD)


def test_master_mediation_charges_conversions(session, rng):
    """Ingest and fetch both convert tensors on the master."""
    session.ensure_started()
    cm = session.cost_model
    nominal = (10 ** 9,)  # 8 GB nominal float64
    g = Graph()
    ph = g.placeholder(nominal)
    out = g.identity(ph)
    t0 = session.cluster.now
    session.run(g, [out], feed_dict={ph: _feed(np.zeros(4), nominal)},
                op=PSEUDO_OVERHEAD)
    elapsed = session.cluster.now - t0
    assert elapsed >= 2 * cm.tensor_convert_time(8 * 10 ** 9) * 0.9


def test_graph_size_limit(session):
    g = Graph()
    const = g.constant(np.zeros(4))
    const.attrs["value"] = Tensor(np.zeros(4), nominal_shape=(400_000_000,))
    node = g.identity(const)
    assert g.serialized_bytes() > GRAPH_SIZE_LIMIT
    with pytest.raises(GraphTooLargeError):
        session.run(g, [node], op=PSEUDO_OVERHEAD)


def test_placeholder_must_be_fed(session):
    g = Graph()
    ph = g.placeholder((10,))
    out = g.identity(ph)
    with pytest.raises(OpError):
        session.run(g, [out], op=PSEUDO_OVERHEAD)


def test_unknown_op_rejected():
    g = Graph()
    with pytest.raises(OpError):
        g._add("matmul_nope", ())


def test_tensor_wrap():
    t = Tensor.wrap(np.zeros((2, 2)))
    assert t.nominal_shape == (2, 2)
    s = Tensor.wrap(SizedArray(np.zeros((2, 2)), nominal_shape=(10, 10)))
    assert s.nominal_shape == (10, 10)
    assert Tensor.wrap(t) is t
