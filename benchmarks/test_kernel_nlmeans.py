"""Kernel ratio: batched ``nlmeans_3d`` against the loop it replaced.

Both kernels are timed in this process, alternately, and the fastest
run of each is kept, so a slow phase of the host slows both sides of the
ratio (bench/README.md, "Estimator").  The small shapes are the volumes
every checked-in profile denoises, where batching must pay; the large
ones take one ``(dz, dy)`` row of offsets per batch, where it must not
cost.  The kernel is timed through ``__wrapped__``: the memoized
``nlmeans_3d`` would compute the first round only and time table reads
after it.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.nlmeans import nlmeans_3d

# The oracle lives with the unit tests; load it by path so this file
# runs whether or not the repository root is on sys.path.
_spec = importlib.util.spec_from_file_location(
    "nlmeans_oracle",
    Path(__file__).resolve().parents[1] / "tests" / "algorithms" / "test_nlmeans.py",
)
_oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_oracle)
_reference_nlmeans_3d = _oracle._reference_nlmeans_3d


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
