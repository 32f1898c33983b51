"""Tests for sky patch geometry."""

import numpy as np
import pytest

from repro.algorithms.patches import PatchGrid, SkyBox
from repro.data.astro import SensorExposure
from repro.formats.sizing import SizedArray
from repro.pipelines.astro.reference import patch_pieces
from tests.algorithms.test_stencil import VALUE_CLASSES


def test_skybox_basic():
    box = SkyBox(10, 20, 30, 40)
    assert box.y1 == 40
    assert box.x1 == 60


def test_skybox_invalid():
    with pytest.raises(ValueError):
        SkyBox(0, 0, 0, 10)


def test_intersection():
    a = SkyBox(0, 0, 10, 10)
    b = SkyBox(5, 5, 10, 10)
    inter = a.intersect(b)
    assert inter == SkyBox(5, 5, 5, 5)


def test_disjoint_intersection_is_none():
    a = SkyBox(0, 0, 10, 10)
    b = SkyBox(20, 20, 5, 5)
    assert a.intersect(b) is None
    # Touching edges do not intersect (half-open boxes).
    c = SkyBox(10, 0, 5, 5)
    assert a.intersect(c) is None


def test_overlapping_patches_within_one():
    grid = PatchGrid(100, 100)
    assert grid.overlapping_patches(SkyBox(10, 10, 50, 50)) == [(0, 0)]


def test_overlapping_patches_spans_four():
    grid = PatchGrid(100, 100)
    patches = grid.overlapping_patches(SkyBox(50, 50, 100, 100))
    assert sorted(patches) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_exposure_overlaps_one_to_six_patches():
    """Section 3.2.2: each exposure is part of 1 to 6 patches under the
    default geometry (patch width two-thirds of sensor width)."""
    sensor = (90, 90)
    grid = PatchGrid(sensor[0], 2 * sensor[1] // 3)
    for dy in range(0, 60, 7):
        for dx in range(0, 60, 7):
            n = len(grid.overlapping_patches(SkyBox(dy, dx, *sensor)))
            assert 1 <= n <= 6


def _reference_extract_overlap(grid, pixels, exposure_box, patch_id):
    """``PatchGrid.extract_overlap``, which ``patch_pieces`` called per
    piece before it wrote each overlap itself, verbatim.

    Half of the oracle ``_reference_patch_pieces``.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    spatial = pixels.shape[-2:]
    if spatial != (exposure_box.height, exposure_box.width):
        raise ValueError(
            f"pixel array {spatial} does not match exposure box"
            f" {(exposure_box.height, exposure_box.width)}"
        )
    patch_box = grid.patch_box(patch_id)
    overlap = exposure_box.intersect(patch_box)
    if overlap is None:
        raise ValueError(
            f"exposure {exposure_box} does not overlap patch {patch_id}"
        )
    out_shape = pixels.shape[:-2] + (patch_box.height, patch_box.width)
    out = np.full(out_shape, np.nan, dtype=np.float64)
    src = (
        ...,
        slice(overlap.y0 - exposure_box.y0, overlap.y1 - exposure_box.y0),
        slice(overlap.x0 - exposure_box.x0, overlap.x1 - exposure_box.x0),
    )
    dst = (
        ...,
        slice(overlap.y0 - patch_box.y0, overlap.y1 - patch_box.y0),
        slice(overlap.x0 - patch_box.x0, overlap.x1 - patch_box.x0),
    )
    out[dst] = pixels[src]
    return out


def _reference_patch_pieces(exposure, grid, pixel_scale):
    """Step 2-A's ``patch_pieces`` before it computed each overlap once
    from integer bounds, verbatim.

    The oracle: ``patch_pieces`` must return these keys and, per piece,
    these bytes, dtype, ``nominal_shape`` and ``meta``.
    """
    side = max(1, int(round(np.sqrt(pixel_scale))))
    pieces = []
    for patch_id in grid.overlapping_patches(exposure.sky_box):
        piece = _reference_extract_overlap(
            grid, exposure.flux, exposure.sky_box, patch_id
        ).astype(np.float32)
        overlap = exposure.sky_box.intersect(grid.patch_box(patch_id))
        nominal_shape = (overlap.height * side, overlap.width * side)
        pieces.append(
            (
                (patch_id, exposure.visit_id),
                SizedArray(
                    piece,
                    nominal_shape=nominal_shape,
                    meta={
                        "patch": patch_id,
                        "visit": exposure.visit_id,
                        "side": side,
                    },
                ),
            )
        )
    return pieces


def exposure_at(flux, box, visit_id=0):
    """A sensor exposure of ``flux`` at ``box`` (Step 2-A reads no other
    plane)."""
    return SensorExposure(visit_id=visit_id, sensor_id=0, flux=flux,
                          variance=None, mask=None, sky_box=box)


def assert_same_pieces(got, want):
    """Same keys in the same order; per piece the same dtype, bytes,
    nominal shape and meta."""
    assert [key for key, _piece in got] == [key for key, _piece in want]
    for (_key, ours), (_key, theirs) in zip(got, want):
        assert ours.array.dtype == theirs.array.dtype
        assert ours.array.shape == theirs.array.shape
        assert ours.array.tobytes() == theirs.array.tobytes()
        assert ours.nominal_shape == theirs.nominal_shape
        assert ours.nominal_bytes == theirs.nominal_bytes
        assert ours.meta == theirs.meta


def test_extract_overlap_places_pixels():
    grid = PatchGrid(10, 10)
    pixels = np.arange(100, dtype=float).reshape(10, 10)
    box = SkyBox(5, 5, 10, 10)
    pieces = dict(patch_pieces(exposure_at(pixels, box), grid, 1.0))
    piece = pieces[((0, 0), 0)].array
    # Patch (0,0) covers sky [0:10, 0:10]; overlap is [5:10, 5:10].
    assert piece.shape == (10, 10)
    assert np.isnan(piece[0, 0])
    assert piece[5, 5] == pixels[0, 0]
    assert piece[9, 9] == pixels[4, 4]
    assert pieces[((0, 0), 0)].nominal_shape == (5, 5)


def test_extract_overlap_validates():
    grid = PatchGrid(10, 10)
    with pytest.raises(ValueError):
        patch_pieces(exposure_at(np.zeros((5, 5)), SkyBox(0, 0, 10, 10)),
                     grid, 1.0)


def test_patch_coverage_partitions_pixels():
    """Every sky pixel of an exposure lands in exactly one patch."""
    grid = PatchGrid(7, 9)
    box = SkyBox(3, 4, 20, 25)
    pixels = np.arange(20 * 25, dtype=float).reshape(20, 25)
    seen = np.zeros_like(pixels, dtype=int)
    for _key, piece in patch_pieces(exposure_at(pixels, box), grid, 1.0):
        values = piece.array[~np.isnan(piece.array)]
        for v in values:
            y, x = divmod(int(v), 25)
            seen[y, x] += 1
    assert np.all(seen == 1)


#: Exposure boxes against a 7 x 9 grid: inside one patch, on patch
#: edges, ragged overlaps on every side, one pixel, wider than a patch.
BOXES = [SkyBox(1, 1, 5, 5), SkyBox(7, 9, 7, 9), SkyBox(3, 4, 20, 25),
         SkyBox(6, 8, 2, 2), SkyBox(0, 0, 1, 1), SkyBox(13, 17, 1, 30)]


@pytest.mark.parametrize("value_class", sorted(VALUE_CLASSES))
@pytest.mark.parametrize("box", BOXES)
@pytest.mark.parametrize("pixel_scale", [1.0, 4.0, 6.25])
def test_patch_pieces_bytes_match_reference(box, value_class, pixel_scale):
    flux = VALUE_CLASSES[value_class](
        np.random.default_rng(box.height * 31 + box.width), (box.height, box.width))
    exposure = exposure_at(flux, box, visit_id=3)
    grid = PatchGrid(7, 9)
    assert_same_pieces(patch_pieces(exposure, grid, pixel_scale),
                       _reference_patch_pieces(exposure, grid, pixel_scale))


def test_grid_validation():
    with pytest.raises(ValueError):
        PatchGrid(0, 10)
