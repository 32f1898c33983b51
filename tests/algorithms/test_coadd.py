"""Tests for sigma-clipped co-addition."""

import warnings

import numpy as np
import pytest

from repro.algorithms.coadd import coadd_stack, sigma_clip_stack
from tests.algorithms.test_stencil import assert_same_bytes


def _reference_sigma_clip_stack(stack, n_sigma=3.0, n_iter=2):
    """``sigma_clip_stack`` through ``np.nanmean`` / ``np.nanstd``, before
    it wrote their arithmetic out, verbatim.

    The oracle: ``sigma_clip_stack`` must return these bytes.
    """
    stack = np.array(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"stack must be (visits, h, w), got {stack.shape}")
    if n_sigma <= 0:
        raise ValueError(f"n_sigma must be positive, got {n_sigma}")
    for _iteration in range(n_iter):
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mean = np.nanmean(stack, axis=0)
            std = np.nanstd(stack, axis=0)
            deviation = np.abs(stack - mean)
            outliers = deviation > n_sigma * std
        outliers &= std > 0
        if not outliers.any():
            break
        stack[outliers] = np.nan
    return stack


def _spiked(rng, shape):
    """Visits near 10 with a few far-off pixels: both passes clip."""
    stack = rng.normal(10.0, 0.5, shape)
    stack[rng.random(shape) < 0.05] = 1000.0
    return stack


def _holes(rng, shape):
    """Visits that cover part of the patch (NaN outside), some pixels
    covered by no visit at all."""
    stack = _spiked(rng, shape)
    stack[rng.random(shape) < 0.4] = np.nan
    stack[:, 0, 0] = np.nan
    return stack


#: The value classes of a co-add stack: coverage holes and all-NaN
#: pixels, infinities, signed zeros, ties, a deviation of 0, extremes
#: whose sums overflow.
STACK_CLASSES = {
    "normal": lambda rng, shape: rng.normal(0.0, 3.0, shape),
    "spiked": _spiked,
    "holes": _holes,
    "all_nan": lambda rng, shape: np.full(shape, np.nan),
    "inf": lambda rng, shape: np.where(
        rng.random(shape) < 0.1, rng.choice([np.inf, -np.inf], shape),
        _spiked(rng, shape)),
    "signed_zeros": lambda rng, shape: rng.choice([-0.0, 0.0, 5.0], shape),
    "ties": lambda rng, shape: np.round(rng.normal(0.0, 1.0, shape)),
    "constant": lambda rng, shape: np.full(shape, 2.5),
    "extremes": lambda rng, shape: rng.choice([1e308, -1e308, 1.0], shape),
    "float32": lambda rng, shape: _holes(rng, shape).astype(np.float32),
}


@pytest.mark.parametrize("stack_class", sorted(STACK_CLASSES))
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 4, 3), (2, 3, 3),
                                   (5, 1, 1), (24, 4, 5), (4, 40, 26)])
def test_sigma_clip_bytes_match_nanfunctions(shape, stack_class):
    stack = STACK_CLASSES[stack_class](np.random.default_rng(shape[0]), shape)
    for n_sigma, n_iter in [(3.0, 2), (1.0, 2), (0.5, 3), (3.0, 0)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the arithmetic warns of nothing
            got = sigma_clip_stack(stack, n_sigma, n_iter)
        assert_same_bytes(got, _reference_sigma_clip_stack(stack, n_sigma, n_iter))


def test_outlier_nulled_with_enough_visits(rng):
    """With 24 visits (the paper's count) a cosmic-ray-like outlier is
    beyond 3 sigma and gets nulled.  (With ~6 visits a single outlier
    mathematically cannot exceed 3 sigma of the sample.)"""
    stack = np.full((24, 8, 8), 10.0) + rng.normal(0, 0.1, (24, 8, 8))
    stack[5, 3, 3] = 1000.0
    clipped = sigma_clip_stack(stack)
    assert np.isnan(clipped[5, 3, 3])
    # Only that sample was removed at that pixel.
    assert np.isnan(clipped[:, 3, 3]).sum() == 1


def test_small_stacks_cannot_clip_single_outlier():
    """The sqrt(n-1) bound: for n <= 9 a lone outlier stays within 3
    sigma, a real property of the paper's algorithm."""
    stack = np.full((6, 4, 4), 10.0)
    stack[2, 1, 1] = 1000.0
    clipped = sigma_clip_stack(stack)
    assert not np.isnan(clipped[2, 1, 1])


def test_two_iterations_catch_masked_second_outlier(rng):
    """The second cleaning iteration finds outliers unmasked by the
    first removal -- why the reference does two passes."""
    stack = np.full((24, 4, 4), 10.0) + rng.normal(0, 0.05, (24, 4, 4))
    stack[0, 2, 2] = 5000.0   # huge: inflates sigma
    stack[1, 2, 2] = 200.0    # hidden behind the first in iteration 1
    one = sigma_clip_stack(stack.copy(), n_iter=1)
    two = sigma_clip_stack(stack.copy(), n_iter=2)
    assert np.isnan(two[0, 2, 2]) and np.isnan(two[1, 2, 2])
    assert np.isnan(one[:, 2, 2]).sum() <= np.isnan(two[:, 2, 2]).sum()


def test_nan_coverage_ignored(rng):
    stack = np.full((12, 4, 4), 7.0)
    stack[3] = np.nan  # a visit with no coverage of this patch
    coadd, counts = coadd_stack(stack)
    assert np.all(counts == 11)
    assert np.allclose(coadd, 77.0)


def test_coadd_sums_surviving_values():
    stack = np.stack([np.full((3, 3), float(i)) for i in range(1, 5)])
    coadd, counts = coadd_stack(stack, n_iter=0)
    assert np.allclose(coadd, 1 + 2 + 3 + 4)
    assert np.all(counts == 4)


def test_clean_stack_untouched(rng):
    stack = np.full((10, 5, 5), 3.0) + rng.normal(0, 0.01, (10, 5, 5))
    clipped = sigma_clip_stack(stack)
    assert not np.isnan(clipped).any()


def test_validation():
    with pytest.raises(ValueError):
        sigma_clip_stack(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        sigma_clip_stack(np.zeros((4, 4, 4)), n_sigma=0)


def test_all_nan_pixel():
    stack = np.full((5, 2, 2), np.nan)
    coadd, counts = coadd_stack(stack)
    assert np.all(counts == 0)
    assert np.allclose(coadd, 0.0)
