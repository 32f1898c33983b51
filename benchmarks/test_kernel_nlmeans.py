"""Kernel ratios: ``nlmeans_3d`` against the forms it replaced.

Both kernels are timed in this process, alternately, and the fastest
run of each is kept, so a slow phase of the host slows both sides of the
ratio (bench/README.md, "Estimator").  Against the one-offset-at-a-time
loop: the small shapes are the volumes every checked-in profile
denoises, where batching must pay; the large ones take one ``(dz, dy)``
row of offsets per batch, where it must not cost.  Against the batched
full-grid form (``_full_grid_nlmeans_3d``, kept with the unit tests): a
quick-profile volume under a brain mask that keeps 22 % of it, as every
``neuro-grid`` mask does, where computing only the kept voxels after
the box sums must pay.  The kernel is timed through ``__wrapped__``: the
memoized ``nlmeans_3d`` would compute the first round only and time
table reads after it.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.nlmeans import nlmeans_3d
from repro.harness.runner import neuro_subjects
from repro.pipelines.neuro.reference import DENOISE_SIGMA, compute_mask

# The oracle lives with the unit tests; load it by path so this file
# runs whether or not the repository root is on sys.path.
_spec = importlib.util.spec_from_file_location(
    "nlmeans_oracle",
    Path(__file__).resolve().parents[1] / "tests" / "algorithms" / "test_nlmeans.py",
)
_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracle)
_reference_nlmeans_3d = _oracle._reference_nlmeans_3d
_full_grid_nlmeans_3d = _oracle._full_grid_nlmeans_3d


def _best_of(rounds, *kernels):
    best = [float("inf")] * len(kernels)
    for _ in range(rounds):
        for index, kernel in enumerate(kernels):
            start = time.perf_counter()
            kernel()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


@pytest.mark.parametrize(
    "shape, bound, rounds",
    [
        ((8, 8, 8), 0.35, 30),
        ((8, 8, 9), 0.35, 30),
        ((18, 18, 21), 0.8, 8),  # generate_subject's default scale=8
        ((40, 40, 30), 1.0, 4),
    ],
)
def test_batched_kernel_against_reference_loop(shape, bound, rounds):
    rng = np.random.default_rng(0)
    volume = rng.normal(100.0, 12.0, shape)
    mask = rng.random(shape) < 0.5
    new_s, reference_s = _best_of(
        rounds,
        lambda: nlmeans_3d.__wrapped__(volume, sigma=12.0, mask=mask),
        lambda: _reference_nlmeans_3d(volume, sigma=12.0, mask=mask),
    )
    print(f"{shape}: {new_s * 1e3:.2f} ms / {reference_s * 1e3:.2f} ms "
          f"= {new_s / reference_s:.2f} (bound {bound})")
    assert new_s <= bound * reference_s


def test_masked_kernel_against_full_grid_form():
    """One ``neuro-grid`` subject: its 24 quick-profile volumes under its
    brain mask, which keeps 22 % of each.  On a 2-core Xeon this read
    0.84-0.92 (0.65-0.70 on the two b=0 volumes alone, 0.86-0.92 on the
    others); the parent's kernel on the left reads 1.00."""
    subject = neuro_subjects(1, scale=20, n_volumes=24)[0]
    volumes, mask = subject.data.array, compute_mask(subject)
    assert volumes.shape == (8, 8, 8, 24)
    assert 0.2 < mask.mean() < 0.25

    def denoise(kernel):
        for index in range(volumes.shape[-1]):
            kernel(volumes[..., index], DENOISE_SIGMA, mask)

    new_s, full_grid_s = _best_of(
        15,
        lambda: denoise(nlmeans_3d.__wrapped__),
        lambda: denoise(_full_grid_nlmeans_3d),
    )
    bound = 0.95
    print(f"24 x (8, 8, 8), {mask.mean():.0%} kept: {new_s * 1e3:.2f} ms / "
          f"{full_grid_s * 1e3:.2f} ms = {new_s / full_grid_s:.2f} "
          f"(bound {bound})")
    assert new_s <= bound * full_grid_s
