"""Tests for sky patch geometry."""

import numpy as np
import pytest

from repro.algorithms.patches import PatchGrid, SkyBox


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


def test_extract_overlap_places_pixels():
    grid = PatchGrid(10, 10)
    pixels = np.arange(100, dtype=float).reshape(10, 10)
    box = SkyBox(5, 5, 10, 10)
    piece = grid.extract_overlap(pixels, box, (0, 0))
    # Patch (0,0) covers sky [0:10, 0:10]; overlap is [5:10, 5:10].
    assert piece.shape == (10, 10)
    assert np.isnan(piece[0, 0])
    assert piece[5, 5] == pixels[0, 0]
    assert piece[9, 9] == pixels[4, 4]


def test_extract_overlap_multi_plane():
    grid = PatchGrid(8, 8)
    planes = np.stack([np.ones((8, 8)), np.full((8, 8), 2.0)])
    box = SkyBox(0, 0, 8, 8)
    piece = grid.extract_overlap(planes, box, (0, 0))
    assert piece.shape == (2, 8, 8)
    assert np.all(piece[1] == 2.0)


def test_extract_overlap_validates():
    grid = PatchGrid(10, 10)
    with pytest.raises(ValueError):
        grid.extract_overlap(np.zeros((5, 5)), SkyBox(0, 0, 10, 10), (0, 0))
    with pytest.raises(ValueError):
        grid.extract_overlap(np.zeros((10, 10)), SkyBox(0, 0, 10, 10), (5, 5))


def test_patch_coverage_partitions_pixels():
    """Every sky pixel of an exposure lands in exactly one patch."""
    grid = PatchGrid(7, 9)
    box = SkyBox(3, 4, 20, 25)
    pixels = np.arange(20 * 25, dtype=float).reshape(20, 25)
    seen = np.zeros_like(pixels, dtype=int)
    for patch_id in grid.overlapping_patches(box):
        piece = grid.extract_overlap(pixels, box, patch_id)
        values = piece[~np.isnan(piece)]
        for v in values:
            y, x = divmod(int(v), 25)
            seen[y, x] += 1
    assert np.all(seen == 1)


def test_grid_validation():
    with pytest.raises(ValueError):
        PatchGrid(0, 10)
