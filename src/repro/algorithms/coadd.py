"""Sigma-clipped co-addition (Step 3-A, astronomy).

"Step 3-A groups the exposures associated with the same patch across
different visits and stacks them by summing up the pixel (or flux)
values. ... Before summing up the pixel values, this step performs
iterative outlier removal by computing the mean flux value for each
pixel and setting any pixel that is three standard deviations away from
the mean to null.  Our reference implementation performs two such
cleaning iterations." (Section 3.2.2.)

NaN marks both "no coverage" (patch pixels outside an exposure's
footprint) and "nulled outlier".
"""

import numpy as np


def sigma_clip_stack(stack, n_sigma=3.0, n_iter=2):
    """Null per-pixel outliers across the visit axis.

    ``stack`` has shape ``(n_visits, h, w)``; returns a copy with
    outliers (more than ``n_sigma`` standard deviations from the
    per-pixel mean) replaced by NaN, after ``n_iter`` cleaning passes.
    """
    stack = np.array(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"stack must be (visits, h, w), got {stack.shape}")
    if n_sigma <= 0:
        raise ValueError(f"n_sigma must be positive, got {n_sigma}")
    for _iteration in range(n_iter):
        # np.nanmean / np.nanstd written out: sums over the visits with
        # NaN read as 0, divided by the per-pixel count (0 / 0 is NaN
        # where no visit covers a pixel, and no comparison holds there).
        with np.errstate(all="ignore"):
            missing = np.isnan(stack)
            count = np.sum(~missing, axis=0, dtype=np.intp)
            filled = np.where(missing, 0.0, stack)
            mean = filled.sum(axis=0) / count
            centred = np.where(missing, 0.0, filled - mean)
            std = np.sqrt(np.sum(centred * centred, axis=0) / count)
            outliers = np.abs(stack - mean) > n_sigma * std
        outliers &= std > 0
        if not outliers.any():
            break
        stack[outliers] = np.nan
    return stack


def coadd_stack(stack, n_sigma=3.0, n_iter=2):
    """Full co-addition: clip outliers, then sum surviving pixels.

    Pixels with no surviving contribution co-add to zero.  Also returns
    the per-pixel contribution count, useful for weighting and tests.
    """
    clipped = sigma_clip_stack(stack, n_sigma=n_sigma, n_iter=n_iter)
    counts = np.sum(~np.isnan(clipped), axis=0)
    coadd = np.nansum(clipped, axis=0)
    return coadd, counts
