"""Tests for source detection and connected-component labeling."""

import numpy as np
import pytest

from repro.algorithms.sources import (
    Source,
    _UnionFind,
    detect_sources,
    label_regions,
)
from repro.algorithms.stencil import median
from tests.algorithms.test_stencil import VALUE_CLASSES


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


def _reference_detect_sources(image, n_sigma=5.0, npix_min=3, connectivity=8):
    """``detect_sources`` before it sorted the background clip once and
    grouped region pixels with one stable sort, verbatim (less its memo).

    The oracle: ``detect_sources`` must return these sources, bit for
    bit.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")

    values = image[np.isfinite(image)]
    if values.size == 0:
        return []
    clipped = values
    for _iteration in range(3):
        center = median(clipped)
        std = clipped.std()
        if std == 0:
            break
        keep = np.abs(clipped - center) <= 3.0 * std
        if keep.all():
            break
        clipped = clipped[keep]
    center = median(clipped)
    std = clipped.std()
    threshold = center + n_sigma * std

    mask = np.nan_to_num(image, nan=-np.inf) > threshold
    labels, n_regions = label_regions(mask, connectivity=connectivity)
    sources = []
    for label in range(1, n_regions + 1):
        ys, xs = np.nonzero(labels == label)
        if ys.size < npix_min:
            continue
        fluxes = image[ys, xs] - center
        total = float(fluxes.sum())
        weight = np.maximum(fluxes, 1e-12)
        sources.append(
            Source(
                label=label,
                centroid_y=float(np.average(ys, weights=weight)),
                centroid_x=float(np.average(xs, weights=weight)),
                flux=total,
                peak=float(image[ys, xs].max()),
                n_pixels=int(ys.size),
            )
        )
    sources.sort(key=lambda s: -s.flux)
    return sources


def source_bits(sources):
    """Each source's fields, floats as their exact hex."""
    return [tuple(v.hex() if isinstance(v, float) else v
                  for v in vars(source).values()) for source in sources]


def _coadd_like(rng, shape):
    """A co-add: sky noise, a few bright blobs and specks, NaN where no
    visit covered."""
    image = rng.normal(0.0, 2.0, shape)
    for _blob in range(4):
        y, x = rng.integers(0, shape[0]), rng.integers(0, shape[1])
        image[y:y + 3, x:x + 2] += rng.uniform(20.0, 200.0)
    image[rng.random(shape) < 0.02] += 80.0
    image[:, :max(1, shape[1] // 5)] = np.nan
    return image


SOURCE_CLASSES = dict(VALUE_CLASSES, coadd_like=_coadd_like)


@pytest.mark.parametrize("value_class", sorted(SOURCE_CLASSES))
@pytest.mark.parametrize("shape", [(40, 26), (9, 14), (1, 7), (1, 1)])
def test_detect_sources_match_reference(shape, value_class):
    rng = np.random.default_rng(shape[0] * 7 + shape[1])
    image = SOURCE_CLASSES[value_class](rng, shape)
    for n_sigma, npix_min, connectivity in [(5.0, 3, 8), (1.0, 1, 4), (0.5, 2, 8)]:
        with np.errstate(invalid="ignore", over="ignore"):
            got = detect_sources.__wrapped__(image, n_sigma, npix_min, connectivity)
            want = _reference_detect_sources(image, n_sigma, npix_min, connectivity)
        assert source_bits(got) == source_bits(want)
