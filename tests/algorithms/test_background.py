"""Tests for background estimation/subtraction."""

import numpy as np
import pytest

from repro.algorithms.background import (
    _bilinear_upsample,
    estimate_background,
    subtract_background,
)
from tests.algorithms.test_stencil import VALUE_CLASSES, assert_same_bytes


def _sigma_clipped_median(values, n_sigma=3.0, n_iter=3):
    """Median after iteratively rejecting outliers beyond n_sigma.

    The one-box clip ``estimate_background`` called per mesh box before
    it clipped all boxes of an image together, verbatim.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    values = values[np.isfinite(values)]
    if values.size == 0:
        return 0.0
    for _iteration in range(n_iter):
        median = np.median(values)
        std = values.std()
        if std == 0:
            break
        keep = np.abs(values - median) <= n_sigma * std
        if keep.all():
            break
        values = values[keep]
        if values.size == 0:
            return float(median)
    return float(np.median(values))


def _reference_estimate_background(image, box_size=64, n_sigma=3.0):
    """The per-box loop ``estimate_background`` replaced, verbatim.

    The oracle: ``estimate_background`` must return these bytes.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    if box_size <= 0:
        raise ValueError(f"box_size must be positive, got {box_size}")
    ny, nx = image.shape
    grid_y = max(1, int(np.ceil(ny / box_size)))
    grid_x = max(1, int(np.ceil(nx / box_size)))

    mesh = np.zeros((grid_y, grid_x), dtype=np.float64)
    centers_y = np.zeros(grid_y)
    centers_x = np.zeros(grid_x)
    for gy in range(grid_y):
        y0, y1 = gy * box_size, min((gy + 1) * box_size, ny)
        centers_y[gy] = (y0 + y1 - 1) / 2.0
        for gx in range(grid_x):
            x0, x1 = gx * box_size, min((gx + 1) * box_size, nx)
            if gy == 0:
                centers_x[gx] = (x0 + x1 - 1) / 2.0
            mesh[gy, gx] = _sigma_clipped_median(
                image[y0:y1, x0:x1], n_sigma=n_sigma
            )

    return _bilinear_upsample(mesh, centers_y, centers_x, ny, nx)


def test_flat_background_recovered():
    img = np.full((64, 64), 12.5)
    bg = estimate_background(img, box_size=16)
    assert np.allclose(bg, 12.5, atol=1e-9)


def test_gradient_background_tracked(rng):
    yy, xx = np.mgrid[0:96, 0:96]
    truth = 10 + 0.05 * yy + 0.02 * xx
    img = truth + rng.normal(0, 0.1, truth.shape)
    bg = estimate_background(img, box_size=16)
    assert np.abs(bg - truth).mean() < 0.5


def test_stars_do_not_bias_background(rng):
    img = np.full((64, 64), 5.0) + rng.normal(0, 0.2, (64, 64))
    img[20, 20] += 500.0  # a bright star
    img[40:42, 40:42] += 300.0
    bg = estimate_background(img, box_size=16)
    assert np.abs(bg - 5.0).max() < 1.5


def test_subtract_background_residual(rng):
    yy, xx = np.mgrid[0:64, 0:64]
    img = 5 + 0.03 * yy + rng.normal(0, 0.1, (64, 64))
    residual, bg = subtract_background(img, box_size=16)
    assert np.abs(residual.mean()) < 0.2
    assert residual.shape == img.shape


def test_box_size_larger_than_image():
    img = np.full((16, 16), 2.0)
    bg = estimate_background(img, box_size=100)
    assert np.allclose(bg, 2.0)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        estimate_background(np.zeros(5), box_size=4)
    with pytest.raises(ValueError):
        estimate_background(np.zeros((5, 5)), box_size=0)


def test_sigma_clipped_median_resists_outliers(rng):
    values = rng.normal(10, 1, 500)
    values[:10] = 10_000.0
    assert _sigma_clipped_median(values) == pytest.approx(10.0, abs=0.5)


def test_sigma_clipped_median_empty():
    assert _sigma_clipped_median(np.array([])) == 0.0


def test_sigma_clipped_median_ignores_nan(rng):
    values = np.concatenate([rng.normal(5, 1, 100), [np.nan] * 10])
    assert _sigma_clipped_median(values) == pytest.approx(5.0, abs=0.5)


def _starry(rng, shape):
    """Sky noise with bright pixels: clipping runs several iterations."""
    image = rng.normal(10.0, 3.0, shape)
    image[rng.random(shape) < 0.04] += 500.0
    return image


def _mostly_nan(rng, shape):
    image = np.round(rng.normal(10.0, 3.0, shape) / 4) * 4
    image[rng.random(shape) < 0.6] = np.nan
    return image


BACKGROUND_CLASSES = dict(
    VALUE_CLASSES,
    starry=_starry,
    mostly_nan=_mostly_nan,
    all_nan=lambda rng, shape: np.full(shape, np.nan),
)


@pytest.mark.parametrize("value_class", sorted(BACKGROUND_CLASSES))
@pytest.mark.parametrize(
    "shape, box_size",
    [
        ((40, 40), 8),    # the quick profile's sensors
        ((19, 23), 8),    # ragged last boxes on both axes
        ((17, 9), 5),
        ((7, 11), 64),    # one box larger than the image
        ((6, 6), 1),      # one pixel per box: every deviation is 0
        ((1, 13), 4),
    ],
)
def test_background_bytes_match_per_box_loop(shape, box_size, value_class):
    rng = np.random.default_rng(shape[0] * 100 + box_size)
    image = BACKGROUND_CLASSES[value_class](rng, shape)
    for n_sigma in (3.0, 1.0, 0.5):  # tight clips reject down to nothing
        assert_same_bytes(
            estimate_background(image, box_size, n_sigma),
            _reference_estimate_background(image, box_size, n_sigma),
        )


def test_subtract_background_bytes_match_per_box_loop(rng):
    image = _starry(rng, (40, 40))
    residual, background = subtract_background(image, box_size=8)
    assert_same_bytes(background, _reference_estimate_background(image, 8))
    assert_same_bytes(residual, image - background)
