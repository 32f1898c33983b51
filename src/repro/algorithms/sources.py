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
from repro.algorithms.stencil import median


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
