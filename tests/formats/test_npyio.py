"""Tests for the pickled-NumPy staging size."""

import pickle

import numpy as np

from repro.formats.npyio import PICKLE_OVERHEAD_BYTES


def test_nominal_size_close_to_actual(rng):
    a = rng.random((64, 64)).astype(np.float32)
    actual = len(pickle.dumps(a, protocol=pickle.HIGHEST_PROTOCOL))
    nominal = a.nbytes + PICKLE_OVERHEAD_BYTES
    assert abs(actual - nominal) < 256
