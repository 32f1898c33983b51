"""Tests for the neuroscience reference pipeline."""

import numpy as np
import pytest

from repro.algorithms.otsu import median_otsu
from repro.pipelines import common
from repro.pipelines.neuro.reference import (
    MASK_MEDIAN_RADIUS,
    compute_mask,
    denoise_volumes,
    fit_block,
    fit_subject,
    mask_block,
    run_reference,
    stack_images,
)


@pytest.fixture(scope="module")
def result(tiny_subject):
    return run_reference(tiny_subject)


def test_mask_recovers_brain(tiny_subject, result):
    mask, _denoised, _fa = result
    truth = tiny_subject.brain_mask_truth
    overlap = (mask & truth).sum() / truth.sum()
    assert overlap > 0.85
    false_positive = (mask & ~truth).sum() / max(1, (~truth).sum())
    assert false_positive < 0.15


def test_denoised_shape_and_background(tiny_subject, result):
    mask, denoised, _fa = result
    assert denoised.shape == tiny_subject.data.array.shape
    # Outside the mask, denoising is a passthrough.
    outside = ~mask
    original = tiny_subject.data.array[outside]
    assert np.allclose(denoised[outside], original)


def test_denoising_reduces_noise_against_clean_twin(result):
    """Denoising moves volumes toward the noise-free ground truth.

    The generator is deterministic per subject id, so regenerating the
    subject with ``noise_sigma=0`` yields the clean signal under the
    same spatial modulation.
    """
    from repro.data.neuro import generate_subject

    mask, denoised, _fa = result
    noisy = generate_subject("tiny", scale=12, n_volumes=24)
    clean = generate_subject("tiny", scale=12, n_volumes=24, noise_sigma=0.0)
    err_before = np.abs(
        noisy.data.array.astype(np.float64) - clean.data.array
    )[mask].mean()
    err_after = np.abs(denoised - clean.data.array)[mask].mean()
    assert err_after < 0.9 * err_before


def test_fa_highlights_tract(tiny_subject, result):
    mask, _denoised, fa = result
    assert fa.shape == tiny_subject.brain_mask_truth.shape
    assert np.all((0.0 <= fa) & (fa <= 1.0))
    # The synthetic tract is strongly anisotropic: its FA dominates the
    # isotropic tissue around it.
    from repro.data.neuro import _brain_geometry

    brain, tract = _brain_geometry(fa.shape)
    isotropic = brain & ~tract & mask
    in_tract = tract & mask
    assert fa[in_tract].mean() > 0.5
    assert fa[in_tract].mean() > 2 * fa[isotropic].mean()


def test_fa_zero_outside_mask(result):
    mask, _denoised, fa = result
    assert np.allclose(fa[~mask], 0.0)


def test_steps_compose(tiny_subject, result):
    mask, denoised, fa = result
    assert np.array_equal(compute_mask(tiny_subject), mask)
    assert np.allclose(denoise_volumes(tiny_subject.data.array, mask), denoised)
    assert np.allclose(fit_subject(denoised, tiny_subject.gtab, mask), fa)


def test_mask_bytes_match_the_fancy_indexed_mean(tiny_subject):
    """``compute_mask`` averages the b0 volumes stacked one by one; the
    b0 selection by boolean index gives the same bytes."""
    data = tiny_subject.data.array
    mean_b0 = data[..., tiny_subject.gtab.b0s_mask].mean(axis=-1)
    _masked, want = median_otsu(mean_b0, median_radius=MASK_MEDIAN_RADIUS)
    got = compute_mask(tiny_subject)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_blocks", [1, 3, 8, 40])
def test_mask_blocks_line_up_with_volume_blocks(tiny_subject, n_blocks):
    """Cut by the same bounds: each mask block is as deep as the voxel
    block of that id, and the blocks tile the mask in order."""
    mask = compute_mask(tiny_subject)
    volume = tiny_subject.volumes[0]
    blocks = common.split_volume_blocks(volume, n_blocks)
    cuts = [mask_block(mask, n_blocks, block_id) for block_id, _b in blocks]
    for cut, (_block_id, block) in zip(cuts, blocks):
        assert cut.shape == block.array.shape
    assert np.concatenate(cuts).tobytes() == mask.tobytes()


def test_block_fits_tile_the_subject_fit(tiny_subject, result):
    """Step 3-N per voxel block, from entries in any order, agrees with
    the whole-subject fit."""
    mask, denoised, fa = result
    n_blocks = 3
    bounds = common.block_z_bounds(mask.shape[0], n_blocks)
    images = list(range(denoised.shape[-1]))
    fitted = []
    for block_id in range(n_blocks):
        cut = denoised[bounds[block_id]:bounds[block_id + 1]]
        entries = [(i, cut[..., i]) for i in reversed(images)]
        stacked = stack_images(entries)
        assert stacked.tobytes() == np.ascontiguousarray(cut).tobytes()
        fitted.append(fit_block(stacked, tiny_subject.gtab, mask, n_blocks,
                                block_id))
    assert np.allclose(np.concatenate(fitted), fa, atol=1e-10)
