"""Tests for source detection and connected-component labeling."""

import numpy as np
import pytest

from repro.algorithms.sources import (
    Source,
    _UnionFind,
    detect_sources,
    label_regions,
)


def _reference_label_regions(mask, connectivity=8):
    """``label_regions`` before its second pass skipped the background,
    verbatim.

    The oracle: ``label_regions`` must return these labels and count.
    """
    mask = np.asarray(mask, dtype=bool)
    ny, nx = mask.shape
    labels = np.zeros((ny, nx), dtype=np.int64)
    uf = _UnionFind()

    # Pass 1: provisional labels, merging via earlier neighbors.
    for y in range(ny):
        row_mask = mask[y]
        for x in np.nonzero(row_mask)[0]:
            neighbors = []
            if x > 0 and labels[y, x - 1]:
                neighbors.append(labels[y, x - 1])
            if y > 0:
                if labels[y - 1, x]:
                    neighbors.append(labels[y - 1, x])
                if connectivity == 8:
                    if x > 0 and labels[y - 1, x - 1]:
                        neighbors.append(labels[y - 1, x - 1])
                    if x + 1 < nx and labels[y - 1, x + 1]:
                        neighbors.append(labels[y - 1, x + 1])
            if not neighbors:
                labels[y, x] = uf.make()
            else:
                smallest = min(uf.find(n) for n in neighbors)
                labels[y, x] = smallest
                for n in neighbors:
                    uf.union(smallest, n)

    # Pass 2: resolve to dense final labels.
    remap = {}
    next_label = 1
    flat = labels.ravel()
    roots = np.array([uf.find(v) if v else 0 for v in flat], dtype=np.int64)
    for root in roots:
        if root and root not in remap:
            remap[root] = next_label
            next_label += 1
    final = np.array([remap[r] if r else 0 for r in roots], dtype=np.int64)
    return final.reshape(ny, nx), next_label - 1


def test_label_single_region():
    mask = np.zeros((5, 5), dtype=bool)
    mask[1:3, 1:3] = True
    labels, n = label_regions(mask)
    assert n == 1
    assert (labels > 0).sum() == 4


def test_label_two_regions():
    mask = np.zeros((8, 8), dtype=bool)
    mask[0:2, 0:2] = True
    mask[5:7, 5:7] = True
    labels, n = label_regions(mask)
    assert n == 2
    assert labels[0, 0] != labels[5, 5]


def test_diagonal_connectivity_8():
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = mask[1, 1] = True
    labels8, n8 = label_regions(mask, connectivity=8)
    labels4, n4 = label_regions(mask, connectivity=4)
    assert n8 == 1
    assert n4 == 2


def test_u_shape_merges_via_unionfind():
    """A U shape forces label merging in the second pass."""
    mask = np.zeros((5, 5), dtype=bool)
    mask[0:4, 0] = True
    mask[0:4, 4] = True
    mask[4, 0:5] = True
    labels, n = label_regions(mask, connectivity=4)
    assert n == 1


def test_labels_dense_from_one():
    mask = np.zeros((6, 6), dtype=bool)
    mask[0, 0] = mask[2, 2] = mask[4, 4] = True
    labels, n = label_regions(mask, connectivity=4)
    assert n == 3
    assert sorted(np.unique(labels)) == [0, 1, 2, 3]


def test_empty_mask():
    labels, n = label_regions(np.zeros((4, 4), dtype=bool))
    assert n == 0
    assert np.all(labels == 0)


def test_label_validation():
    with pytest.raises(ValueError):
        label_regions(np.zeros(4, dtype=bool))
    with pytest.raises(ValueError):
        label_regions(np.zeros((4, 4), dtype=bool), connectivity=6)


def test_detect_two_sources(rng):
    img = rng.normal(0, 1, (64, 64))
    img[10:13, 10:13] += 60.0
    img[40:44, 50:54] += 100.0
    sources = detect_sources(img, n_sigma=5, npix_min=3)
    assert len(sources) == 2
    # Brightest first.
    assert sources[0].flux > sources[1].flux
    assert sources[0].centroid_y == pytest.approx(41.5, abs=1.0)
    assert sources[1].centroid_x == pytest.approx(11.0, abs=1.0)


def test_detect_min_pixels_filters_specks(rng):
    img = rng.normal(0, 1, (48, 48))
    img[5, 5] += 100.0  # single pixel
    img[20:24, 20:24] += 50.0
    sources = detect_sources(img, n_sigma=5, npix_min=3)
    assert len(sources) == 1
    assert sources[0].n_pixels >= 3


def test_detect_on_sloped_background(rng):
    """Sources are detected relative to robust background statistics."""
    img = rng.normal(10, 0.5, (64, 64))
    img[30:33, 30:33] += 30.0
    sources = detect_sources(img, n_sigma=5, npix_min=3)
    assert len(sources) == 1
    # Flux is background-subtracted.
    assert sources[0].flux < 9 * 45


def test_detect_nothing_in_noise(rng):
    img = rng.normal(0, 1, (64, 64))
    assert detect_sources(img, n_sigma=6, npix_min=3) == []


def test_detect_validation():
    with pytest.raises(ValueError):
        detect_sources(np.zeros(5))


def test_detect_all_nan():
    assert detect_sources(np.full((8, 8), np.nan)) == []


def test_source_is_frozen():
    s = Source(1, 0.0, 0.0, 1.0, 1.0, 3)
    with pytest.raises(Exception):
        s.flux = 2.0


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("fill", [0.0, 0.04, 0.3, 0.6, 1.0])
def test_labels_match_full_image_second_pass(fill, connectivity):
    rng = np.random.default_rng(int(fill * 100) + connectivity)
    for shape in [(40, 26), (9, 14), (1, 7), (6, 1)]:
        mask = rng.random(shape) < fill
        labels, n = label_regions(mask, connectivity)
        want, want_n = _reference_label_regions(mask, connectivity)
        assert labels.dtype == want.dtype
        assert labels.tobytes() == want.tobytes()
        assert n == want_n
