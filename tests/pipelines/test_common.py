"""Tests for shared pipeline helpers (costs and voxel blocks)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.costs import CostModel
from repro.formats.sizing import SizedArray
from repro.pipelines import common

CM = CostModel()


def _volume(shape=(8, 8, 8), nominal=(145, 145, 174)):
    return SizedArray(np.arange(np.prod(shape), dtype=float).reshape(shape),
                      nominal_shape=nominal, meta={"subject_id": "s"})


def test_masked_fraction_floor():
    assert common.masked_fraction(np.zeros((4, 4), dtype=bool)) == 0.01
    assert common.masked_fraction(np.ones((4, 4), dtype=bool)) == 1.0
    assert common.masked_fraction(np.array([], dtype=bool)) == 1.0


def test_denoise_cost_scales_with_mask():
    vol = _volume()
    quarter = common.denoise_cost(CM, 0.25)(vol)
    half = common.denoise_cost(CM, 0.5)(vol)
    assert half == pytest.approx(2 * quarter)


def test_split_volume_blocks_covers_volume():
    vol = _volume(shape=(9, 8, 8))
    blocks = common.split_volume_blocks(vol, 4)
    assert len(blocks) == 4
    total_rows = sum(b.array.shape[0] for _id, b in blocks)
    assert total_rows == 9
    # Nominal z extents partition the nominal axis.
    nominal_total = sum(b.nominal_shape[0] for _id, b in blocks)
    assert nominal_total == vol.nominal_shape[0]


def test_split_more_blocks_than_rows():
    vol = _volume(shape=(3, 4, 4))
    blocks = common.split_volume_blocks(vol, 8)
    assert len(blocks) == 3  # capped at the real extent


def test_reassemble_inverts_split():
    vol = _volume(shape=(8, 5, 5))
    blocks = dict(common.split_volume_blocks(vol, 4))
    rebuilt = common.reassemble_blocks(blocks)
    assert np.array_equal(rebuilt.array, vol.array)
    assert rebuilt.nominal_shape == vol.nominal_shape


def test_reassemble_orders_by_id():
    vol = _volume(shape=(6, 4, 4))
    blocks = dict(common.split_volume_blocks(vol, 3))
    shuffled = {2: blocks[2], 0: blocks[0], 1: blocks[1]}
    rebuilt = common.reassemble_blocks(shuffled)
    assert np.array_equal(rebuilt.array, vol.array)


def test_astro_costs_use_nominal_pixels():
    from repro.data import generate_visit

    exposure = generate_visit(0, scale=100, n_sensors=2).exposures[0]
    pre = common.preprocess_cost(CM)(exposure)
    expected = exposure.nominal_elements * CM.astro_preprocess_per_pixel
    assert pre == pytest.approx(expected)
    patch = common.patch_map_cost(CM)(exposure)
    assert patch == pytest.approx(
        exposure.nominal_elements * CM.astro_patch_per_pixel
    )


def test_coadd_cost_scales_with_iterations():
    pieces = [
        SizedArray(np.zeros((4, 4)), nominal_shape=(1000, 1000))
        for _i in range(6)
    ]
    two = common.coadd_cost(CM, 2)(pieces)
    five = common.coadd_cost(CM, 5)(pieces)
    assert five == pytest.approx(two * 2)  # (5+1)/(2+1)


def test_otsu_cost_positive():
    assert common.otsu_cost(CM)(_volume()) > 0


@pytest.mark.parametrize("shape, nominal, n_blocks", [
    ((9, 8, 8), (145, 145, 174), 4),
    ((8, 8, 8), (145, 145, 174), 8),
    ((3, 4, 4), (20, 4, 4), 8),       # capped at the real extent
    ((29, 29, 32), (145, 145, 174), 8),
])
def test_one_block_is_the_matching_block_of_the_split(shape, nominal, n_blocks):
    vol = _volume(shape=shape, nominal=nominal)
    blocks = common.split_volume_blocks(vol, n_blocks)
    for index, block in blocks:
        alone = common.volume_block(vol, n_blocks, index)
        assert alone.array.tobytes() == block.array.tobytes()
        assert alone.array.shape == block.array.shape
        assert alone.nominal_shape == block.nominal_shape
        assert alone.meta == block.meta
    with pytest.raises(IndexError):
        common.volume_block(vol, n_blocks, len(blocks))


def test_each_dask_block_is_the_matching_block_of_the_split(monkeypatch):
    """Dask's Step 3-N split builds one block per task: the block the
    split of the whole volume holds at that index."""
    from repro.harness.figures import FIGURES
    from repro.harness.parallel import TRIAL_FNS

    built = []
    one_block = common.volume_block

    def recorded(volume, n_blocks, index):
        block = one_block(volume, n_blocks, index)
        built.append((volume, n_blocks, index, block))
        return block

    monkeypatch.setattr(common, "volume_block", recorded)
    figure = FIGURES["fig10c"]
    TRIAL_FNS[figure.trial](engine="dask", count=1,
                            profile=figure.quick["profile"], **figure.fixed)
    assert built
    for volume, n_blocks, index, block in built:
        _block_id, whole = common.split_volume_blocks(volume, n_blocks)[index]
        assert block.array.tobytes() == whole.array.tobytes()
        assert block.nominal_shape == whole.nominal_shape
        assert block.meta == whole.meta


def _reference_block_bounds(volume, n_blocks):
    """``_block_bounds`` as two ``np.linspace`` calls: the oracle for
    the bounds tests below and for ``benchmarks/test_sizing.py``."""
    nz_real = volume.array.shape[0]
    n_blocks = min(n_blocks, nz_real)
    return (
        np.linspace(0, nz_real, n_blocks + 1).astype(int),
        np.linspace(0, volume.nominal_shape[0], n_blocks + 1).astype(int),
    )


def test_even_bounds_equal_linspace_over_every_nominal_z():
    """Every stop up to 2100 (nominal z is at most 174 x 12) and every
    block count up to 32, as Python ints."""
    for n in range(1, 33):
        for stop in range(2101):
            bounds = common._even_bounds(stop, n)
            assert bounds == np.linspace(0, stop, n + 1).astype(int).tolist()
            assert all(type(b) is int for b in bounds)


@given(st.integers(0, 200_000), st.integers(1, 64))
@settings(max_examples=500, deadline=None)
def test_even_bounds_equal_linspace_at_larger_stops(stop, n):
    assert common._even_bounds(stop, n) == (
        np.linspace(0, stop, n + 1).astype(int).tolist())


@pytest.mark.parametrize("n_blocks", [-1, 0, 1, 3, 8, 40])
@pytest.mark.parametrize("shape, nominal", [
    ((9, 8, 8), (145, 145, 174)),
    ((29, 29, 32), (145, 145, 174)),
    ((3, 4, 4), (20, 4, 4)),
    ((7, 2, 2), (7, 2, 2)),
])
def test_block_bounds_match_the_linspace_form(shape, nominal, n_blocks):
    vol = _volume(shape=shape, nominal=nominal)
    real, nominal_bounds = common._block_bounds(vol, n_blocks)
    ref_real, ref_nominal = _reference_block_bounds(vol, n_blocks)
    assert real == ref_real.tolist()
    assert nominal_bounds == ref_nominal.tolist()
    assert len(common.split_volume_blocks(vol, n_blocks)) == max(
        0, len(ref_real) - 1)


def test_block_bounds_refuse_what_linspace_refuses():
    vol = _volume()
    with pytest.raises(ValueError, match="Number of samples, -1") as ours:
        common._block_bounds(vol, -2)
    with pytest.raises(ValueError) as numpy_error:
        _reference_block_bounds(vol, -2)
    assert str(ours.value) == str(numpy_error.value)
