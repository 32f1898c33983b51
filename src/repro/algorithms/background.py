"""Background estimation and subtraction (Step 1-A, astronomy).

"We pre-process each input exposure with background estimation and
subtraction ..." (Section 3.2.2).  The estimator is the standard
mesh-based approach used by astronomy pipelines: sigma-clipped medians
on a coarse grid of boxes, bilinearly interpolated back to full
resolution.
"""

import numpy as np

_CLIP_ITERATIONS = 3


def _sigma_clipped_medians(boxes, n_sigma):
    """Median of each box after iteratively rejecting its outliers.

    ``boxes`` are 1-d arrays of finite values.  Each box is clipped on
    its own statistics, as if alone: values beyond ``n_sigma`` standard
    deviations of the median go, up to ``_CLIP_ITERATIONS`` times, and
    the box is done early once its deviation is 0, nothing is rejected
    or nothing is left.  An empty box gives 0.0.

    Boxes of one size are clipped together, each sorted once: what a
    clip keeps is a run ``ordered[first:first + count]`` of the sorted
    box, and the median is read off its middle.  The deviation is that
    of the run's values in their own order, compressed out of the boxes
    for every run length at once; a reduction along the contiguous axis
    sums each row in the order the 1-d reduction sums that box, so
    batching changes no bit.
    """
    medians = np.zeros(len(boxes))
    by_size = {}
    for index, box in enumerate(boxes):
        if box.size:
            by_size.setdefault(box.size, []).append(index)
    for size, members in by_size.items():
        rows = np.stack([boxes[index] for index in members])
        ordered = np.sort(rows, axis=1)
        members, live = np.array(members), np.arange(len(members))
        first, count = np.zeros_like(live), np.full_like(live, size)
        columns = np.arange(size)
        for iteration in range(_CLIP_ITERATIONS + 1):
            start, n, band = first[live], count[live], ordered[live]
            at = np.arange(live.size)
            upper = band[at, start + n // 2]
            lower = band[at, start + (n - 1) // 2]
            # numpy's median: a sum from +0.0 of the middle element(s),
            # over their count.
            centre = np.where(n % 2, upper + 0.0, (lower + upper + 0.0) / 2)
            medians[members[live]] = centre
            if iteration == _CLIP_ITERATIONS:
                break  # the median of what the last clip left
            stds = np.empty(live.size)
            for kept in set(n.tolist()):
                group = n == kept
                values = rows[live[group]]
                if kept < size:
                    low = band[group, start[group], None]
                    high = band[group, start[group] + kept - 1, None]
                    values = values[(values >= low) & (values <= high)]
                stds[group] = values.reshape(-1, kept).std(axis=1)
            inside = np.abs(band - centre[:, None]) <= n_sigma * stds[:, None]
            inside &= (columns >= start[:, None]) & (columns < (start + n)[:, None])
            n_kept = inside.sum(axis=1)
            first[live], count[live] = inside.argmax(axis=1), n_kept
            live = live[(stds != 0) & (n_kept < n) & (n_kept > 0)]
            if not live.size:
                break
    return medians


def estimate_background(image, box_size=64, n_sigma=3.0):
    """Estimate a smooth background surface for a 2-d image.

    The image is tiled into ``box_size`` squares; each box contributes a
    sigma-clipped median of its finite pixels; box values are bilinearly
    interpolated to full resolution.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    if box_size <= 0:
        raise ValueError(f"box_size must be positive, got {box_size}")
    ny, nx = image.shape
    grid_y = max(1, int(np.ceil(ny / box_size)))
    grid_x = max(1, int(np.ceil(nx / box_size)))
    edges_y = np.minimum(np.arange(grid_y + 1) * box_size, ny)
    edges_x = np.minimum(np.arange(grid_x + 1) * box_size, nx)

    finite = np.isfinite(image)
    boxes = [
        image[y0:y1, x0:x1][finite[y0:y1, x0:x1]]
        for y0, y1 in zip(edges_y, edges_y[1:])
        for x0, x1 in zip(edges_x, edges_x[1:])
    ]
    mesh = _sigma_clipped_medians(boxes, n_sigma).reshape(grid_y, grid_x)
    centers_y = (edges_y[:-1] + edges_y[1:] - 1) / 2.0
    centers_x = (edges_x[:-1] + edges_x[1:] - 1) / 2.0
    return _bilinear_upsample(mesh, centers_y, centers_x, ny, nx)


def _bilinear_upsample(mesh, centers_y, centers_x, ny, nx):
    """Interpolate grid values at box centers onto the full pixel grid."""
    ys = np.arange(ny, dtype=np.float64)
    xs = np.arange(nx, dtype=np.float64)
    gy = np.interp(ys, centers_y, np.arange(len(centers_y), dtype=np.float64))
    gx = np.interp(xs, centers_x, np.arange(len(centers_x), dtype=np.float64))
    y0 = np.clip(np.floor(gy).astype(int), 0, mesh.shape[0] - 1)
    x0 = np.clip(np.floor(gx).astype(int), 0, mesh.shape[1] - 1)
    y1 = np.minimum(y0 + 1, mesh.shape[0] - 1)
    x1 = np.minimum(x0 + 1, mesh.shape[1] - 1)
    wy = (gy - y0)[:, None]
    wx = (gx - x0)[None, :]
    top = mesh[np.ix_(y0, x0)] * (1 - wx) + mesh[np.ix_(y0, x1)] * wx
    bottom = mesh[np.ix_(y1, x0)] * (1 - wx) + mesh[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


def subtract_background(image, box_size=64, n_sigma=3.0):
    """Return ``(image - background, background)``."""
    background = estimate_background(image, box_size=box_size, n_sigma=n_sigma)
    return image - background, background
