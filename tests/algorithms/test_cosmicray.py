"""Tests for cosmic-ray detection and repair."""

import numpy as np
import pytest

from repro.algorithms.cosmicray import detect_cosmic_rays, repair_cosmic_rays
from repro.algorithms.stencil import median, median_filter_2d
from tests.algorithms.test_stencil import (
    VALUE_CLASSES,
    _reference_median_filter,
    assert_same_bytes,
)


def _reference_detect_cosmic_rays(image, variance=None, n_sigma=6.0, radius=2,
                                  objlim=3.0):
    """The whole-image detector ``detect_cosmic_rays`` replaced, verbatim:
    it builds the fine-structure image, 7x7 median and all, at every
    pixel, though only the ``sharp`` ones can be flagged.

    The oracle: ``detect_cosmic_rays`` must return this mask's bytes.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    local_median = median_filter_2d(image, radius=radius)
    residual = image - local_median
    if variance is not None:
        variance = np.asarray(variance, dtype=np.float64)
        if variance.shape != image.shape:
            raise ValueError(
                f"variance shape {variance.shape} does not match image {image.shape}"
            )
        noise = np.sqrt(np.maximum(variance, 1e-12))
    else:
        # Robust global noise: 1.4826 * median absolute deviation.
        mad = median(np.abs(residual - median(residual)))
        noise = np.maximum(1.4826 * mad, 1e-12)
    sharp = residual > n_sigma * noise

    # Fine-structure image: how much smooth (PSF-scale) structure
    # surrounds each pixel.  Stars have large fine structure; isolated
    # cosmic rays do not.
    smooth3 = median_filter_2d(image, radius=1)
    fine = smooth3 - median_filter_2d(smooth3, radius=3)
    with np.errstate(divide="ignore", invalid="ignore"):
        contrast = residual / np.maximum(fine, noise)
    return sharp & (contrast > objlim)


def _reference_repair_cosmic_rays(image, cr_mask, radius=2):
    """The full-image filter ``repair_cosmic_rays`` replaced, verbatim
    (its median filter being the ``np.median`` oracle).

    The oracle: ``repair_cosmic_rays`` must return these bytes.
    """
    image = np.asarray(image, dtype=np.float64)
    cr_mask = np.asarray(cr_mask, dtype=bool)
    if cr_mask.shape != image.shape:
        raise ValueError(
            f"mask shape {cr_mask.shape} does not match image {image.shape}"
        )
    if not cr_mask.any():
        return image.copy()
    local_median = _reference_median_filter(image, radius=radius)
    repaired = image.copy()
    repaired[cr_mask] = local_median[cr_mask]
    return repaired


def _flag_one(rng, shape):
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(rng.integers(0, n) for n in shape)] = True
    return mask


def hits(rng, image, count):
    """``image`` as float64 with ``count`` pixels (at most all) raised far
    above their surroundings: that many candidate cosmic rays."""
    image = np.array(image, dtype=np.float64)
    flat = image.reshape(-1)
    flat[rng.permutation(flat.size)[:count]] += 900.0
    return image


MASKS = {
    "none": lambda rng, shape: np.zeros(shape, dtype=bool),
    "one": _flag_one,
    "few": lambda rng, shape: rng.random(shape) < 0.05,
    "all": lambda rng, shape: np.ones(shape, dtype=bool),
}


def test_detects_single_pixel_hits(rng):
    img = rng.normal(0, 1, (48, 48))
    img[10, 10] = 400.0
    img[30, 25] = 250.0
    mask = detect_cosmic_rays(img)
    assert mask[10, 10]
    assert mask[30, 25]
    assert mask.sum() <= 6  # few false positives


def test_variance_plane_controls_threshold(rng):
    img = rng.normal(0, 1, (32, 32))
    img[5, 5] = 40.0
    quiet = detect_cosmic_rays(img, variance=np.full(img.shape, 1.0))
    loud = detect_cosmic_rays(img, variance=np.full(img.shape, 400.0))
    assert quiet[5, 5]
    assert not loud[5, 5]


def test_extended_sources_not_flagged(rng):
    """A PSF-wide star is not a cosmic ray."""
    yy, xx = np.mgrid[0:48, 0:48]
    star = 80.0 * np.exp(-(((yy - 24) ** 2 + (xx - 24) ** 2) / (2 * 4.0 ** 2)))
    img = star + rng.normal(0, 0.5, star.shape)
    mask = detect_cosmic_rays(img, radius=3)
    # The star's broad core survives.
    assert not mask[24, 24]


def test_repair_restores_neighborhood(rng):
    img = rng.normal(10, 0.5, (32, 32))
    img[8, 8] = 900.0
    mask = detect_cosmic_rays(img)
    repaired = repair_cosmic_rays(img, mask)
    assert abs(repaired[8, 8] - 10.0) < 2.0
    # Unflagged pixels untouched.
    assert np.array_equal(repaired[~mask], img[~mask])


def test_repair_noop_without_hits(rng):
    img = rng.normal(0, 1, (16, 16))
    mask = np.zeros_like(img, dtype=bool)
    repaired = repair_cosmic_rays(img, mask)
    assert np.array_equal(repaired, img)
    assert repaired is not img


def test_shape_validation():
    with pytest.raises(ValueError):
        detect_cosmic_rays(np.zeros(10))
    with pytest.raises(ValueError):
        detect_cosmic_rays(np.zeros((4, 4)), variance=np.zeros((5, 5)))
    with pytest.raises(ValueError):
        repair_cosmic_rays(np.zeros((4, 4)), np.zeros((5, 5), dtype=bool))


@pytest.mark.parametrize("value_class", sorted(VALUE_CLASSES))
@pytest.mark.parametrize("mask_kind", sorted(MASKS))
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_repair_bytes_match_full_image_filter(radius, mask_kind, value_class):
    rng = np.random.default_rng(radius)
    for shape in [(12, 9), (4, 4)]:
        image = VALUE_CLASSES[value_class](rng, shape)
        mask = MASKS[mask_kind](rng, shape)
        before = image.copy()
        assert_same_bytes(
            repair_cosmic_rays(image, mask, radius),
            _reference_repair_cosmic_rays(image, mask, radius),
        )
        assert image.tobytes() == before.tobytes()


def test_detect_then_repair_bytes_match_on_quick_sensor_shape(rng):
    image = rng.normal(100.0, 5.0, (40, 40))
    image[rng.random(image.shape) < 0.004] += 900.0
    mask = detect_cosmic_rays(image, variance=np.full(image.shape, 25.0))
    assert 0 < mask.sum() < 20
    assert_same_bytes(
        repair_cosmic_rays(image, mask), _reference_repair_cosmic_rays(image, mask)
    )


@pytest.mark.parametrize("value_class", sorted(VALUE_CLASSES))
@pytest.mark.parametrize("n_hits", [0, 1, 12])
@pytest.mark.parametrize("with_variance", [False, True])
def test_detect_bytes_match_whole_image_detector(with_variance, n_hits,
                                                 value_class):
    rng = np.random.default_rng(n_hits)
    for shape in [(40, 40), (12, 9), (3, 5), (1, 1)]:
        image = hits(rng, VALUE_CLASSES[value_class](rng, shape), n_hits)
        variance = rng.uniform(0.5, 30.0, shape) if with_variance else None
        with np.errstate(invalid="ignore"):  # inf - inf in the residual
            assert_same_bytes(
                detect_cosmic_rays(image, variance),
                _reference_detect_cosmic_rays(image, variance),
            )
