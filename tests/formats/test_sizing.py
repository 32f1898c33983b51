"""Tests for the SizedArray real/nominal duality."""

import numpy as np
import pytest

from repro.formats.sizing import SizedArray


def test_defaults_to_real_shape(rng):
    a = SizedArray(rng.random((4, 5)))
    assert a.nominal_shape == (4, 5)
    assert a.nominal_elements == 20


def test_nominal_bytes_uses_dtype():
    a = SizedArray(np.zeros((2, 2), dtype=np.float32), nominal_shape=(100, 100))
    assert a.nominal_bytes == 100 * 100 * 4


def test_with_array_overrides():
    a = SizedArray(np.ones((2, 2)), nominal_shape=(20, 20), meta={"k": "v"})
    b = a.with_array(np.zeros((2, 2)))
    assert b.nominal_shape == (20, 20)
    assert b.meta == {"k": "v"}


def test_invalid_nominal_shape_rejected():
    with pytest.raises(ValueError):
        SizedArray(np.ones((2, 2)), nominal_shape=(0, 2))

