"""Tests for stencil primitives."""

import numpy as np
import pytest

from repro.algorithms.stencil import (
    convolve3d,
    median_filter_2d,
    median_filter_3d,
    sliding_windows,
    window_medians,
)


def _reference_median_filter(volume, radius=1):
    """The ``np.median`` form both median filters replaced, verbatim.

    The oracle, 2-d and 3-d: ``median_filter_2d`` / ``median_filter_3d``
    must return these bytes and this dtype.
    """
    volume = np.asarray(volume)
    if radius == 0:
        return volume.copy()
    windows = sliding_windows(volume, radius)
    flat = windows.reshape(volume.shape + (-1,))
    return np.median(flat, axis=-1).astype(volume.dtype, copy=False)


def _with_inf(rng, shape):
    values = rng.normal(0.0, 3.0, shape)
    values[rng.random(shape) < 0.1] = np.inf
    values[rng.random(shape) < 0.1] = -np.inf
    return values


def _with_nan(rng, shape):
    values = rng.normal(0.0, 3.0, shape)
    values[rng.random(shape) < 0.08] = np.nan
    return values


def _with_signed_nan(rng, shape):
    """NaNs of both signs: a sort need not keep a NaN's sign, and
    ``np.median`` answers the one its partition puts last."""
    values = _with_nan(rng, shape)
    values[rng.random(shape) < 0.08] = -np.nan
    return values


#: The value classes where a median picked from a sort could part from
#: ``np.median``: ties, signed zeros, NaN and infinite pixels, dtypes.
VALUE_CLASSES = {
    "float64": lambda rng, shape: rng.normal(0.0, 3.0, shape),
    "float32": lambda rng, shape: rng.normal(0.0, 3.0, shape).astype(np.float32),
    "int32": lambda rng, shape: rng.integers(-9, 10, shape).astype(np.int32),
    "uint8": lambda rng, shape: rng.integers(0, 4, shape).astype(np.uint8),
    "ties": lambda rng, shape: np.round(rng.normal(0.0, 2.0, shape)),
    "signed_zeros": lambda rng, shape: rng.choice([-0.0, 0.0, 1.0], shape),
    "negative_zero": lambda rng, shape: np.full(shape, -0.0),
    "constant": lambda rng, shape: np.full(shape, 4.25),
    "nan": _with_nan,
    "signed_nan": _with_signed_nan,
    "inf": _with_inf,
}


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_sliding_windows_shape(rng):
    v = rng.random((5, 6, 7))
    w = sliding_windows(v, radius=1)
    assert w.shape == (5, 6, 7, 3, 3, 3)


def test_sliding_windows_center_matches(rng):
    v = rng.random((5, 5, 5))
    w = sliding_windows(v, radius=1)
    assert np.allclose(w[2, 2, 2, 1, 1, 1], v[2, 2, 2])


def test_median_filter_removes_impulse():
    v = np.zeros((7, 7, 7))
    v[3, 3, 3] = 100.0
    out = median_filter_3d(v, radius=1)
    assert out[3, 3, 3] == 0.0


def test_median_filter_preserves_constant():
    v = np.full((6, 6, 6), 4.0)
    assert np.array_equal(median_filter_3d(v, radius=1), v)


def test_median_filter_radius_zero_is_copy(rng):
    v = rng.random((4, 4, 4))
    out = median_filter_3d(v, radius=0)
    assert np.array_equal(out, v)
    assert out is not v


def test_median_filter_2d_impulse():
    img = np.zeros((9, 9))
    img[4, 4] = 50.0
    assert median_filter_2d(img, radius=1)[4, 4] == 0.0


def test_convolve3d_identity_kernel(rng):
    v = rng.random((6, 6, 6))
    kernel = np.zeros((3, 3, 3))
    kernel[1, 1, 1] = 1.0
    assert np.allclose(convolve3d(v, kernel), v)


def test_convolve3d_sum_kernel_counts_neighbors():
    v = np.ones((5, 5, 5))
    kernel = np.ones((3, 3, 3))
    out = convolve3d(v, kernel)
    # Reflect padding keeps the full neighborhood sum everywhere.
    assert np.allclose(out, 27.0)


def test_convolve3d_flips_kernel():
    v = np.zeros((5, 5, 5))
    v[2, 2, 2] = 1.0
    kernel = np.zeros((3, 3, 3))
    kernel[0, 1, 1] = 1.0  # offset -1 from center along axis 0
    out = convolve3d(v, kernel)
    # Convolution (kernel flipped): the impulse shifts by -1 along
    # axis 0, matching scipy.ndimage.convolve semantics.
    assert out[1, 2, 2] == pytest.approx(1.0)
    assert out[3, 2, 2] == pytest.approx(0.0)


def test_convolve3d_matches_scipy(rng):
    scipy_ndimage = pytest.importorskip("scipy.ndimage")
    v = rng.random((6, 7, 8))
    kernel = rng.random((3, 3, 3))
    ours = convolve3d(v, kernel)
    # np.pad "reflect" (no edge duplication) is scipy's "mirror" mode.
    theirs = scipy_ndimage.convolve(v, kernel, mode="mirror")
    assert np.allclose(ours, theirs)


def test_convolve3d_rejects_even_kernel(rng):
    with pytest.raises(ValueError):
        convolve3d(rng.random((4, 4, 4)), np.ones((2, 3, 3)))


def test_dim_checks():
    with pytest.raises(ValueError):
        median_filter_3d(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        median_filter_2d(np.zeros((4, 4, 4)))
    with pytest.raises(ValueError):
        sliding_windows(np.zeros((4, 4)), radius=-1)


@pytest.mark.parametrize("value_class", sorted(VALUE_CLASSES))
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", [(9, 7), (4, 4), (5, 6, 4), (4, 4, 4)])
def test_median_filter_bytes_match_np_median(shape, radius, value_class):
    rng = np.random.default_rng(len(shape) * 10 + radius)
    volume = VALUE_CLASSES[value_class](rng, shape)
    median_filter = median_filter_2d if len(shape) == 2 else median_filter_3d
    before = volume.copy()
    assert_same_bytes(
        median_filter(volume, radius), _reference_median_filter(volume, radius)
    )
    # The sort is in place; it must never reach the caller's array.
    assert volume.tobytes() == before.tobytes()


def test_median_filter_bytes_match_np_median_on_quick_sensor_shape(rng):
    image = rng.normal(100.0, 5.0, (40, 40))
    for radius in (1, 2, 3):
        assert_same_bytes(
            median_filter_2d(image, radius), _reference_median_filter(image, radius)
        )


def test_median_filter_of_one_pixel():
    """Its windows reshape without a copy, as a read-only view."""
    pixel, voxel = np.full((1, 1), 4.25), np.zeros((1, 1, 1))
    assert_same_bytes(median_filter_2d(pixel, 1), pixel)
    assert_same_bytes(median_filter_3d(voxel, 2), voxel)


def test_median_of_9_network_on_every_zero_one_window():
    """The 0-1 principle: a min/max network that takes the median of
    every 0/1 window takes the median of every window.  And a NaN
    anywhere in a window reaches its median."""
    for bits in range(2 ** 9):
        window = np.array([bits >> k & 1 for k in range(9)], float).reshape(3, 3)
        assert median_filter_2d(window, 1)[1, 1] == np.median(window)
        with_nan = np.where(window == 1, np.nan, np.arange(9.0).reshape(3, 3))
        assert np.isnan(median_filter_2d(with_nan, 1)[1, 1]) == bool(bits)


def test_median_of_9_keeps_the_sorted_nan(rng):
    """Windows holding NaNs of both signs get ``window_medians``' NaN,
    bit for bit: the bytes ``median_filter_2d`` returned before its 3x3
    network."""
    image = rng.normal(0.0, 3.0, (9, 8))
    image[rng.random(image.shape) < 0.1] = np.nan
    image[rng.random(image.shape) < 0.1] = -np.nan
    assert_same_bytes(median_filter_2d(image, 1),
                      window_medians(sliding_windows(image, 1), 2))


def test_window_medians_leaves_contiguous_windows_alone(rng):
    windows = rng.random((3, 5, 5))
    before = windows.copy()
    assert_same_bytes(
        window_medians(windows, 2), np.median(before.reshape(3, 25), axis=1)
    )
    assert windows.tobytes() == before.tobytes()


def test_median_filter_result_owns_its_memory(rng):
    """Not a view that keeps the sorted ``(pixels, window)`` copy alive."""
    for image in (rng.random((6, 6)), rng.integers(0, 9, (6, 6))):
        out = median_filter_2d(image, radius=2)
        assert out.base is None or out.base.size == out.size


def test_window_medians_of_no_window():
    windows = sliding_windows(np.zeros((4, 4)), 1)[np.zeros((4, 4), dtype=bool)]
    assert window_medians(windows, 2).shape == (0,)
