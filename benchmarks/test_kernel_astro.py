"""Kernel ratios: the astronomy kernels against the loops they replaced.

Both sides are timed in this process, alternately, and the fastest run
of each is kept, so a slow phase of the host slows both sides of the
ratio (bench/README.md, "Estimator").  40 x 40 is the sensor every
quick profile preprocesses and 80 x 81 the full profile's, where one
sort per filter and one clip per mesh must pay; at 40 x 40 cosmic-ray
detection, its fine-structure guard taken at its few candidates only,
must pay against the whole-image detector; the 29 x 29 x 32 volume is
what ``median_otsu`` filters, 125 voxels a window, where it must not
cost.  None of these kernels is memoized (Step 1-A is memoized whole,
in ``repro.pipelines.astro.reference``), so each round computes.

The 3x3 median, Step 2-A's pieces and Step 3-A's clip are timed against
the forms they replaced: the sorted windows, the per-piece
``extract_overlap`` and ``astype``, and ``np.nanmean`` / ``np.nanstd``.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.background import estimate_background
from repro.algorithms.coadd import sigma_clip_stack
from repro.algorithms.cosmicray import detect_cosmic_rays, repair_cosmic_rays
from repro.algorithms.stencil import (
    median_filter_2d,
    median_filter_3d,
    sliding_windows,
    window_medians,
)
from repro.harness.runner import astro_visits
from repro.pipelines.astro.reference import (
    default_patch_grid,
    nominal_pixel_scale,
    patch_pieces,
    preprocess_exposure,
)

# The oracles live with the unit tests, which import one another as
# ``tests.algorithms...``: find the repository root from this file, so
# the ratios run from any directory.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.algorithms.test_background import (  # noqa: E402
    _reference_estimate_background,
)
from tests.algorithms.test_coadd import (  # noqa: E402
    _holes,
    _reference_sigma_clip_stack,
)
from tests.algorithms.test_cosmicray import (  # noqa: E402
    _reference_detect_cosmic_rays,
    _reference_repair_cosmic_rays,
)
from tests.algorithms.test_patches import _reference_patch_pieces  # noqa: E402
from tests.algorithms.test_stencil import _reference_median_filter  # noqa: E402

SENSORS = [(40, 40), (80, 81)]
#: Bounds of the ratios added with the 3x3 network, the lean Step 2-A
#: pieces and the written-out clip.  Twelve runs on a shared 2-core Xeon
#: read 0.38-0.46 and 0.22-0.29 (the network at 40 x 40 and 80 x 81),
#: 0.43-0.46 (pieces) and 0.36-0.51 (clip).
BOUND_MEDIAN_OF_9 = {(40, 40): 0.7, (80, 81): 0.5}
BOUND_PATCH_PIECES = 0.7
BOUND_SIGMA_CLIP = 0.75


def _best_of(rounds, *kernels):
    best = [float("inf")] * len(kernels)
    for _ in range(rounds):
        for index, kernel in enumerate(kernels):
            start = time.perf_counter()
            kernel()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def _check(label, bound, new_s, reference_s):
    print(f"{label}: {new_s * 1e3:.3f} ms / {reference_s * 1e3:.3f} ms "
          f"= {new_s / reference_s:.2f} (bound {bound})")
    assert new_s <= bound * reference_s


def _sky(shape):
    rng = np.random.default_rng(0)
    image = rng.normal(200.0, 5.0, shape)
    image[rng.random(shape) < 0.01] += 900.0
    return rng, image


@pytest.mark.parametrize("shape", SENSORS)
def test_median_filter_2d_against_np_median(shape):
    _rng, image = _sky(shape)
    new_s, reference_s = _best_of(
        30,
        lambda: median_filter_2d(image, radius=2),
        lambda: _reference_median_filter(image, radius=2),
    )
    _check(f"median_filter_2d {shape} radius 2", 0.5, new_s, reference_s)


@pytest.mark.parametrize("shape", SENSORS)
def test_estimate_background_against_per_box_loop(shape):
    _rng, image = _sky(shape)
    new_s, reference_s = _best_of(
        20,
        lambda: estimate_background(image, box_size=8),
        lambda: _reference_estimate_background(image, box_size=8),
    )
    _check(f"estimate_background {shape} box 8", 0.6, new_s, reference_s)


@pytest.mark.parametrize("shape", SENSORS)
def test_repair_cosmic_rays_against_full_image_filter(shape):
    rng, image = _sky(shape)
    mask = np.zeros(shape, dtype=bool)
    mask.ravel()[rng.choice(image.size, 5, replace=False)] = True
    new_s, reference_s = _best_of(
        30,
        lambda: repair_cosmic_rays(image, mask),
        lambda: _reference_repair_cosmic_rays(image, mask),
    )
    _check(f"repair_cosmic_rays {shape} 5 flagged", 0.4, new_s, reference_s)


def test_detect_cosmic_rays_against_whole_image_detector():
    """On a 2-core Xeon this read 0.68-0.71; the whole-image detector on
    the left reads 1.00."""
    _rng, image = _sky((40, 40))
    variance = np.full(image.shape, 25.0)
    assert 0 < detect_cosmic_rays(image, variance).sum() < 40
    new_s, reference_s = _best_of(
        30,
        lambda: detect_cosmic_rays(image, variance),
        lambda: _reference_detect_cosmic_rays(image, variance),
    )
    _check("detect_cosmic_rays (40, 40)", 0.85, new_s, reference_s)


def test_median_filter_3d_against_np_median():
    volume = np.random.default_rng(0).normal(100.0, 12.0, (29, 29, 32))
    new_s, reference_s = _best_of(
        4,
        lambda: median_filter_3d(volume, radius=2),
        lambda: _reference_median_filter(volume, radius=2),
    )
    _check("median_filter_3d (29, 29, 32) radius 2", 1.0, new_s, reference_s)


@pytest.mark.parametrize("shape", SENSORS)
def test_median_filter_2d_radius_1_against_sorted_windows(shape):
    _rng, image = _sky(shape)
    new_s, reference_s = _best_of(
        30,
        lambda: median_filter_2d(image, radius=1),
        lambda: window_medians(sliding_windows(image, 1), 2),
    )
    _check(f"median_filter_2d {shape} radius 1", BOUND_MEDIAN_OF_9[shape],
           new_s, reference_s)


def test_patch_pieces_against_extract_overlap():
    """Step 2-A on the 24 calibrated exposures of the quick cells."""
    exposures = [preprocess_exposure(exposure)
                 for visit in astro_visits(4, scale=100, n_sensors=6)
                 for exposure in visit.exposures]
    grid = default_patch_grid(exposures[0].shape)
    scale = nominal_pixel_scale(exposures[0].shape, exposures[0].bundle)
    new_s, reference_s = _best_of(
        30,
        lambda: [patch_pieces(e, grid, scale) for e in exposures],
        lambda: [_reference_patch_pieces(e, grid, scale) for e in exposures],
    )
    _check("patch_pieces, 24 quick exposures", BOUND_PATCH_PIECES,
           new_s, reference_s)


def test_sigma_clip_stack_against_nanfunctions():
    """A quick co-add stack: 4 visits of a 40 x 26 patch, with holes."""
    stack = _holes(np.random.default_rng(0), (4, 40, 26))
    new_s, reference_s = _best_of(
        50,
        lambda: sigma_clip_stack(stack),
        lambda: _reference_sigma_clip_stack(stack),
    )
    _check("sigma_clip_stack (4, 40, 26)", BOUND_SIGMA_CLIP, new_s, reference_s)
