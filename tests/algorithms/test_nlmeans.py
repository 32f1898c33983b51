"""Tests for non-local means denoising."""

import math

import numpy as np
import pytest

from repro.algorithms.nlmeans import (
    _BATCH_ELEMENTS,
    _box_sums,
    _radius,
    _stage_layouts,
    nlmeans_3d,
)
from repro.harness.runner import neuro_subjects
from repro.pipelines.neuro.reference import DENOISE_SIGMA, compute_mask


def _reference_nlmeans_3d(volume, sigma, mask=None, patch_radius=1, block_radius=2):
    """The one-offset-at-a-time kernel ``nlmeans_3d`` replaced, verbatim.

    The oracle: ``nlmeans_3d`` must return these bytes.
    """
    volume = np.asarray(volume, dtype=np.float64)
    if volume.ndim != 3:
        raise ValueError(f"nlmeans_3d expects a 3-d volume, got {volume.shape}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != volume.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match volume {volume.shape}"
            )

    pr, br = int(patch_radius), int(block_radius)
    pad = pr + br
    padded = np.pad(volume, pad, mode="reflect")

    h2 = 2.0 * (np.sqrt(2.0) * sigma) ** 2
    patch_size = (2 * pr + 1) ** 3

    weights_sum = np.zeros_like(volume)
    values_sum = np.zeros_like(volume)

    shape = volume.shape

    # For each search offset, compute per-voxel patch distances using a
    # box sum over the shifted squared-difference volume (the standard
    # O(offsets) NLM decomposition).
    center = padded[
        pad - pr: pad + pr + shape[0],
        pad - pr: pad + pr + shape[1],
        pad - pr: pad + pr + shape[2],
    ]
    for dz in range(-br, br + 1):
        for dy in range(-br, br + 1):
            for dx in range(-br, br + 1):
                shifted = padded[
                    pad + dz - pr: pad + dz + pr + shape[0],
                    pad + dy - pr: pad + dy + pr + shape[1],
                    pad + dx - pr: pad + dx + pr + shape[2],
                ]
                sq_diff = (shifted - center) ** 2
                dist = _reference_box_sum_3d(sq_diff, 2 * pr + 1)
                weight = np.exp(-dist / (h2 * patch_size))
                neighbor = padded[
                    pad + dz: pad + dz + shape[0],
                    pad + dy: pad + dy + shape[1],
                    pad + dx: pad + dx + shape[2],
                ]
                weights_sum += weight
                values_sum += weight * neighbor

    denoised = values_sum / weights_sum
    if mask is not None:
        denoised = np.where(mask, denoised, volume)
    return denoised


def _reference_box_sum_3d(volume, width):
    """Sum over all cubic windows of edge ``width`` (valid mode).

    Input of shape ``(a, b, c)`` produces output of shape
    ``(a - width + 1, ...)`` via separable cumulative sums.
    """
    out = volume
    for axis in range(3):
        cumsum = np.cumsum(out, axis=axis)
        zero_shape = list(cumsum.shape)
        zero_shape[axis] = 1
        padded = np.concatenate([np.zeros(zero_shape), cumsum], axis=axis)
        upper = np.take(padded, range(width, padded.shape[axis]), axis=axis)
        lower = np.take(padded, range(0, padded.shape[axis] - width), axis=axis)
        out = upper - lower
    return out


def _full_grid_nlmeans_3d(volume, sigma, mask=None, patch_radius=1,
                          block_radius=2):
    """The batched kernel before it kept only the masked voxels, verbatim:
    it scales, exponentiates, weights and accumulates every voxel, and
    ``np.where`` then drops the ones outside the mask.

    Not an oracle (``_reference_nlmeans_3d`` is): the form the kernel
    ratio in ``benchmarks/test_kernel_nlmeans.py`` times the kernel
    against.
    """
    volume = np.asarray(volume, dtype=np.float64)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
    pr = _radius("patch_radius", patch_radius)
    br = _radius("block_radius", block_radius)

    pad = pr + br
    padded = np.pad(volume, pad, mode="reflect")

    h2 = 2.0 * (np.sqrt(2.0) * sigma) ** 2
    width = 2 * pr + 1
    neg_scale = -(h2 * width ** 3)

    weights_sum = np.zeros_like(volume)
    values_sum = np.zeros_like(volume)

    shape = volume.shape
    span = 2 * br + 1
    window = tuple(n + 2 * pr for n in shape)
    windows = np.lib.stride_tricks.sliding_window_view(padded, window)
    neighbors = np.lib.stride_tricks.sliding_window_view(padded, shape)[
        pr: pr + span, pr: pr + span, pr: pr + span
    ]
    center = windows[br, br, br]

    rows = max(1, min(span, _BATCH_ELEMENTS // (span * math.prod(window))))
    scratch = [np.empty(rows * span * math.prod(window)) for _ in range(2)]

    for dz in range(span):
        for dy in range(0, span, rows):
            shifted = windows[dz, dy: dy + rows]
            count = len(shifted)
            stages = [
                scratch[k % 2][: math.prod(layout)].reshape(layout)
                for k, layout in enumerate(
                    _stage_layouts(count * span, shape, window)
                )
            ]
            sq_diff = stages[0].reshape((window[0], count, span) + window[1:])
            np.subtract(
                shifted.transpose(2, 0, 1, 3, 4), center[:, None, None],
                out=sq_diff,
            )
            np.multiply(sq_diff, sq_diff, out=sq_diff)
            weights = _box_sums(stages, width)
            np.divide(weights, neg_scale, out=weights)
            np.exp(weights, out=weights)
            weighted = scratch[0][: weights.size].reshape(weights.shape)
            np.multiply(
                weights.reshape((count, span) + shape),
                neighbors[dz, dy: dy + count],
                out=weighted.reshape((count, span) + shape),
            )
            for weight, value in zip(weights, weighted):
                weights_sum += weight
                values_sum += value

    denoised = values_sum / weights_sum
    if mask is not None:
        denoised = np.where(mask, denoised, volume)
    return denoised


def _one_voxel(rng, shape):
    mask = np.zeros(shape, dtype=bool)
    mask[tuple(rng.integers(0, n) for n in shape)] = True
    return mask


#: Large enough that the shortest row of shifted windows (block radius
#: 1, patch radius 0: three unpadded windows) overflows the batch
#: budget, so each batch holds a single ``(dz, dy)`` row at every radius.
ONE_ROW_SHAPE = (22, 22, 23)

MASKS = {
    "none": lambda rng, shape: None,
    "random": lambda rng, shape: rng.random(shape) < 0.4,
    "all_false": lambda rng, shape: np.zeros(shape, dtype=bool),
    "all_true": lambda rng, shape: np.ones(shape, dtype=bool),
    "one_voxel": _one_voxel,
}


def test_one_row_shape_forces_single_row_batches():
    assert 3 * math.prod(ONE_ROW_SHAPE) > _BATCH_ELEMENTS


@pytest.mark.parametrize("patch_radius", [0, 2])
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 4, 6)])
def test_bytes_match_reference_loop_on_tiny_volumes(shape, patch_radius):
    """Volumes of one voxel along some axes: there a numpy reduction over
    the offsets sums pairwise, not as a chain (hypothesis found
    ``(1, 1, 1)`` at patch radius 0, block radius 1)."""
    volume = np.random.default_rng(0).normal(100.0, 25.0, shape)
    args = (volume, 10.0, None, patch_radius, 1)
    assert (nlmeans_3d.__wrapped__(*args).tobytes()
            == _reference_nlmeans_3d(*args).tobytes())


def test_bytes_match_reference_loop_on_bench_cohort():
    """Every volume the ``neuro-grid`` benchmark workload denoises."""
    for subject in neuro_subjects(2, scale=20, n_volumes=24):
        mask = compute_mask(subject)
        data = subject.data.array
        for index in range(data.shape[-1]):
            args = (data[..., index], DENOISE_SIGMA, mask)
            assert (
                nlmeans_3d.__wrapped__(*args).tobytes()
                == _reference_nlmeans_3d(*args).tobytes()
            ), (subject.subject_id, index)


@pytest.mark.parametrize("shape", [(8, 8, 9), ONE_ROW_SHAPE])
@pytest.mark.parametrize("mask_kind", sorted(MASKS))
def test_kernel_and_full_grid_form_match_reference_loop(mask_kind, shape):
    """Every mask kind, at a whole-plane and a one-row batch; the timing
    baseline computes what the kernel computes."""
    rng = np.random.default_rng(1)
    volume = rng.normal(100.0, 25.0, shape)
    args = (volume, 12.0, MASKS[mask_kind](rng, shape))
    want = _reference_nlmeans_3d(*args).tobytes()
    assert nlmeans_3d.__wrapped__(*args).tobytes() == want
    assert _full_grid_nlmeans_3d(*args).tobytes() == want


def test_box_sum_matches_naive(rng):
    batch = rng.random((2, 6, 7, 8))
    width = 3
    layouts = _stage_layouts(2, (4, 5, 6), (6, 7, 8))
    stages = [np.empty(layout) for layout in layouts]
    stages[0][...] = batch.transpose(1, 0, 2, 3)
    out = _box_sums(stages, width)
    assert out.shape == (2, 4, 5, 6)
    assert out[0, 0, 0, 0] == pytest.approx(batch[0, :3, :3, :3].sum())
    assert out[1, 2, 3, 4] == pytest.approx(batch[1, 2:5, 3:6, 4:7].sum())
    for row, volume in zip(out, batch):
        assert row.tobytes() == _reference_box_sum_3d(volume, width).tobytes()


def test_denoising_reduces_error(rng):
    clean = np.zeros((12, 12, 12))
    clean[4:8, 4:8, 4:8] = 10.0
    noisy = clean + rng.normal(0, 1.0, clean.shape)
    denoised = nlmeans_3d(noisy, sigma=1.0)
    assert np.abs(denoised - clean).mean() < 0.5 * np.abs(noisy - clean).mean()


def test_constant_volume_unchanged():
    v = np.full((8, 8, 8), 5.0)
    assert np.allclose(nlmeans_3d(v, sigma=1.0), 5.0)


def test_mask_passthrough_outside(rng):
    noisy = rng.normal(10, 1, (10, 10, 10))
    mask = np.zeros((10, 10, 10), dtype=bool)
    mask[3:7, 3:7, 3:7] = True
    out = nlmeans_3d(noisy, sigma=1.0, mask=mask)
    # Outside the mask the volume is untouched.
    assert np.array_equal(out[~mask], noisy[~mask])
    # Inside it changed (denoised).
    assert not np.allclose(out[mask], noisy[mask])


def test_output_shape_matches(rng):
    v = rng.random((9, 10, 11))
    assert nlmeans_3d(v, sigma=0.5).shape == v.shape


def test_larger_search_window_smooths_more(rng):
    clean = np.zeros((10, 10, 10))
    noisy = clean + rng.normal(0, 1.0, clean.shape)
    small = nlmeans_3d(noisy, sigma=1.0, block_radius=1)
    large = nlmeans_3d(noisy, sigma=1.0, block_radius=3)
    assert np.abs(large).mean() <= np.abs(small).mean() + 1e-9


def test_invalid_inputs():
    with pytest.raises(ValueError):
        nlmeans_3d(np.zeros((4, 4)), sigma=1.0)
    with pytest.raises(ValueError):
        nlmeans_3d(np.zeros((4, 4, 4)), sigma=0.0)
    for sigma in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="sigma"):
            nlmeans_3d(np.zeros((4, 4, 4)), sigma=sigma)
    with pytest.raises(ValueError):
        nlmeans_3d(
            np.zeros((4, 4, 4)), sigma=1.0, mask=np.zeros((3, 3, 3), dtype=bool)
        )
    for name, radius in [
        ("block_radius", -1),
        ("patch_radius", -1),
        ("patch_radius", 1.7),
        ("block_radius", float("nan")),
    ]:
        with pytest.raises(ValueError, match=name):
            nlmeans_3d(np.zeros((4, 4, 4)), sigma=1.0, **{name: radius})


def test_weights_favor_similar_patches(rng):
    """A bright structure should not bleed into a dark region."""
    v = np.zeros((12, 12, 12))
    v[:, :6, :] = 0.0
    v[:, 6:, :] = 100.0
    v += rng.normal(0, 0.5, v.shape)
    out = nlmeans_3d(v, sigma=0.5)
    assert out[:, :4, :].mean() < 5.0
    assert out[:, 8:, :].mean() > 95.0
