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
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.background import estimate_background
from repro.algorithms.cosmicray import detect_cosmic_rays, repair_cosmic_rays
from repro.algorithms.stencil import median_filter_2d, median_filter_3d

# The oracles live with the unit tests, which import one another as
# ``tests.algorithms...``: find the repository root from this file, so
# the ratios run from any directory.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.algorithms.test_background import (  # noqa: E402
    _reference_estimate_background,
)
from tests.algorithms.test_cosmicray import (  # noqa: E402
    _reference_detect_cosmic_rays,
    _reference_repair_cosmic_rays,
)
from tests.algorithms.test_stencil import _reference_median_filter  # noqa: E402

SENSORS = [(40, 40), (80, 81)]


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
