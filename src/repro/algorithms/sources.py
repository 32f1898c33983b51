"""Source detection (Step 4-A, astronomy).

"Finally, Step 4-A detects sources visible in each Coadd ... by
estimating the background and detecting all pixel clusters with flux
values above a given threshold." (Section 3.2.2.)

Connected-component labeling is implemented from scratch (two-pass
union-find with 8-connectivity).
"""

from dataclasses import dataclass

import numpy as np

from repro.algorithms.memo import memoized


@dataclass(frozen=True)
class Source:
    """One detected pixel cluster."""

    label: int
    centroid_y: float
    centroid_x: float
    flux: float
    peak: float
    n_pixels: int


class _UnionFind:
    """Disjoint sets over dense integer labels."""

    def __init__(self):
        self.parent = [0]

    def make(self):
        """Create a new singleton set; returns its label."""
        label = len(self.parent)
        self.parent.append(label)
        return label

    def find(self, label):
        """Root label of the set containing ``label``."""
        root = label
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[label] != root:  # path compression
            self.parent[label], label = root, self.parent[label]
        return root

    def union(self, a, b):
        """Merge the two sets (smaller root wins)."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def label_regions(mask, connectivity=8):
    """Label connected True regions; returns ``(labels, n_regions)``.

    ``labels`` is an int array where background pixels are 0 and each
    connected region gets a dense id starting at 1.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"expected a 2-d mask, got shape {mask.shape}")
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")

    ny, nx = mask.shape
    uf = _UnionFind()
    # The set pixels' flat indices, in raster order: pass 1 visits them
    # as Python ints, and never the rest of the image.
    at_set = np.flatnonzero(mask)

    # Pass 1: provisional labels, merging via earlier neighbors.
    label_at = {}
    get = label_at.get
    for at in at_set.tolist():
        x = at % nx
        neighbors = []
        if x > 0 and (label := get(at - 1)):
            neighbors.append(label)
        if at >= nx:
            up = at - nx
            if label := get(up):
                neighbors.append(label)
            if connectivity == 8:
                if x > 0 and (label := get(up - 1)):
                    neighbors.append(label)
                if x + 1 < nx and (label := get(up + 1)):
                    neighbors.append(label)
        if not neighbors:
            label_at[at] = uf.make()
        else:
            smallest = min(uf.find(n) for n in neighbors)
            label_at[at] = smallest
            for n in neighbors:
                uf.union(smallest, n)

    # Pass 2: resolve the provisional labels to dense final labels, in
    # raster order of first appearance.
    remap = {}
    dense = [remap.setdefault(uf.find(label), len(remap) + 1)
             for label in label_at.values()]
    final = np.zeros(ny * nx, dtype=np.int64)
    final[at_set] = dense
    return final.reshape(ny, nx), len(remap)


def _clipped_background(values):
    """Median and deviation of the finite ``values`` after up to three
    3-sigma clips.  A clip keeps a run of the values sorted once: the
    median is read off its middle, as numpy's (a sum from +0.0 of the
    middle element or two, over their count), the deviation is that of
    the run's values in their own order."""
    ordered = np.sort(values)
    first, count, kept = 0, values.size, values
    for iteration in range(4):
        half = first + count // 2
        if count % 2:
            center = ordered[half] + 0.0
        else:
            center = (ordered[half - 1] + ordered[half] + 0.0) / 2
        std = kept.std()
        if iteration == 3 or std == 0:
            break
        inside = np.abs(ordered[first:first + count] - center) <= 3.0 * std
        n_kept = int(np.count_nonzero(inside))
        if n_kept in (0, count):
            break
        first, count = first + int(inside.argmax()), n_kept
        low, high = ordered[first], ordered[first + count - 1]
        kept = values[(values >= low) & (values <= high)]
    return center, std


@memoized
def detect_sources(image, n_sigma=5.0, npix_min=3, connectivity=8):
    """Detect sources above a background-relative threshold.

    Background statistics use a sigma-clipped global estimate; the
    detection threshold is ``median + n_sigma * std``.  Returns a list
    of :class:`Source`, brightest (by flux) first.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")

    values = image[np.isfinite(image)]
    if values.size == 0:
        return []
    center, std = _clipped_background(values)
    threshold = center + n_sigma * std

    mask = np.nan_to_num(image, nan=-np.inf) > threshold
    labels, n_regions = label_regions(mask, connectivity=connectivity)
    # Each region's pixels in raster order: one stable sort of the
    # labelled pixels by label.
    at = np.flatnonzero(labels)
    at = at[np.argsort(labels.ravel()[at], kind="stable")]
    region_ys, region_xs = np.divmod(at, image.shape[1])
    ends = np.cumsum(np.bincount(labels.ravel())[1:]).tolist()
    sources = []
    for label, start, end in zip(range(1, n_regions + 1), [0] + ends, ends):
        if end - start < npix_min:
            continue
        ys, xs = region_ys[start:end], region_xs[start:end]
        pixels = image[ys, xs]
        fluxes = pixels - center
        weight = np.maximum(fluxes, 1e-12)
        # np.average's arithmetic: the weighted sum over the weights' sum.
        scale = weight.sum()
        sources.append(
            Source(
                label=label,
                centroid_y=float((ys * weight).sum() / scale),
                centroid_x=float((xs * weight).sum() / scale),
                flux=float(fluxes.sum()),
                peak=float(pixels.max()),
                n_pixels=end - start,
            )
        )
    sources.sort(key=lambda s: -s.flux)
    return sources
