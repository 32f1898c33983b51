"""Tests for the synthetic dMRI subject generator."""

import dataclasses

import numpy as np
import pytest

from repro.data.catalog import NEURO_N_B0, NEURO_N_VOLUMES, NEURO_VOLUME_SHAPE
from repro.data.neuro import B_VALUE, generate_subject, make_gradient_table
from repro.formats.nifti import nifti_bytes, read_nifti
from repro.formats.sizing import SizedArray
import io


def _arrays(subject):
    return (subject.data.array, subject.brain_mask_truth,
            subject.gtab.bvals, subject.gtab.bvecs)


def _reference_volume(subject, index):
    """Reference: volume ``index`` as a record built on its own."""
    x, y, z = NEURO_VOLUME_SHAPE
    return SizedArray(
        subject.data.array[..., index],
        nominal_shape=(x, y, z * subject.bundle),
        meta={"subject_id": subject.subject_id, "image_id": index},
    )


def test_deterministic_by_id():
    """The memo returns one subject per call, with the bytes a fresh
    generation has."""
    memo = generate_subject("s1", scale=12, n_volumes=24)
    assert generate_subject("s1", scale=12, n_volumes=24) is memo
    fresh = generate_subject.__wrapped__("s1", scale=12, n_volumes=24)
    assert fresh is not memo
    for got, want in zip(_arrays(memo), _arrays(fresh)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_generated_arrays_are_read_only(tiny_subject):
    for array in _arrays(tiny_subject) + (tiny_subject.volumes[0].array,):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0


def test_subject_is_frozen(tiny_subject):
    with pytest.raises(dataclasses.FrozenInstanceError):
        tiny_subject.subject_id = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        tiny_subject.data = None


def test_volumes_match_per_index_records(tiny_subject):
    volumes = tiny_subject.volumes
    assert tiny_subject.volumes is volumes  # built once
    assert len(volumes) == tiny_subject.n_volumes
    for index, volume in enumerate(volumes):
        want = _reference_volume(tiny_subject, index)
        assert volume.array.dtype == want.array.dtype
        assert volume.array.tobytes() == want.array.tobytes()
        assert volume.nominal_shape == want.nominal_shape
        assert volume.meta == want.meta


def test_distinct_subjects_differ():
    a = generate_subject("s1", scale=12, n_volumes=24)
    b = generate_subject("s2", scale=12, n_volumes=24)
    assert not np.array_equal(a.data.array, b.data.array)


def test_nominal_shape_is_paper_scale(tiny_subject):
    assert tiny_subject.data.nominal_shape == NEURO_VOLUME_SHAPE + (
        NEURO_N_VOLUMES,
    )


def test_volume_bundling(tiny_subject):
    """24 real volumes stand in for 288: bundle = 12, and the volume
    records' nominal bytes sum to the full subject."""
    assert tiny_subject.bundle == 12
    total = sum(volume.nominal_bytes for volume in tiny_subject.volumes)
    assert total == tiny_subject.nominal_bytes


def test_volume_metadata(tiny_subject):
    vol = tiny_subject.volumes[3]
    assert vol.meta["subject_id"] == "tiny"
    assert vol.meta["image_id"] == 3


def test_brain_signal_above_background(tiny_subject):
    data = tiny_subject.data.array
    brain = tiny_subject.brain_mask_truth
    b0 = data[..., tiny_subject.gtab.b0s_mask].mean(axis=-1)
    assert b0[brain].mean() > 5 * b0[~brain].mean()


def test_diffusion_attenuates_signal(tiny_subject):
    """Diffusion-weighted volumes are dimmer than b0 inside the brain."""
    data = tiny_subject.data.array
    brain = tiny_subject.brain_mask_truth
    gtab = tiny_subject.gtab
    b0_mean = data[..., gtab.b0s_mask][brain].mean()
    dw_mean = data[..., ~gtab.b0s_mask][brain].mean()
    assert dw_mean < 0.8 * b0_mean


def test_signals_non_negative(tiny_subject):
    assert tiny_subject.data.array.min() >= 0.0


def test_to_nifti_roundtrip(tiny_subject):
    img = tiny_subject.to_nifti()
    back = read_nifti(io.BytesIO(nifti_bytes(img)))
    assert np.array_equal(back.data, tiny_subject.data.array)
    assert back.pixdim[:3] == (1.25, 1.25, 1.25)


def test_gradient_table_b0_fraction():
    gtab = make_gradient_table(n_volumes=288)
    assert gtab.b0s_mask.sum() == 18  # the paper's 18 of 288


def test_gradient_table_small_counts():
    gtab = make_gradient_table(n_volumes=24)
    assert 2 <= gtab.b0s_mask.sum() <= 3
    assert len(gtab) == 24


def test_gradient_table_validation():
    with pytest.raises(ValueError):
        make_gradient_table(n_volumes=5)


def _reference_gradient_table(n_volumes, n_b0):
    """``make_gradient_table``'s arrays with the diffusion-weighted
    positions found by ``np.setdiff1d``, the form before the b0 mask."""
    n_dw = n_volumes - n_b0
    indices = np.arange(n_dw, dtype=np.float64)
    golden = (1 + 5 ** 0.5) / 2
    theta = 2 * np.pi * indices / golden
    z = 1 - 2 * (indices + 0.5) / n_dw
    r = np.sqrt(np.maximum(0.0, 1 - z * z))
    directions = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
    bvals = np.zeros(n_volumes)
    bvecs = np.zeros((n_volumes, 3))
    b0_positions = np.linspace(0, n_volumes - 1, n_b0).round().astype(int)
    dw_positions = np.setdiff1d(np.arange(n_volumes), b0_positions)
    bvals[dw_positions] = B_VALUE
    bvecs[dw_positions] = directions
    return bvals, bvecs


@pytest.mark.parametrize("n_b0", [None, 2, 3, 5, 18])
def test_gradient_table_matches_the_setdiff1d_form(n_b0):
    for n_volumes in range(10, 1000):
        count = n_b0 or max(2, round(n_volumes * NEURO_N_B0 / NEURO_N_VOLUMES))
        if n_volumes - count < 7:
            continue
        gtab = make_gradient_table(n_volumes=n_volumes, n_b0=n_b0)
        bvals, bvecs = _reference_gradient_table(n_volumes, count)
        assert gtab.bvals.tobytes() == bvals.tobytes()
        assert gtab.bvecs.tobytes() == bvecs.tobytes()


def test_gradient_directions_spread():
    """Fibonacci-spiral directions cover both hemispheres."""
    gtab = make_gradient_table(n_volumes=60)
    dw = gtab.bvecs[~gtab.b0s_mask]
    assert dw[:, 2].max() > 0.5
    assert dw[:, 2].min() < -0.5
    assert np.allclose(np.linalg.norm(dw, axis=1), 1.0, atol=1e-9)


def test_scale_validation():
    with pytest.raises(ValueError):
        generate_subject("s", scale=0)
