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

import warnings

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
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mean = np.nanmean(stack, axis=0)
            std = np.nanstd(stack, axis=0)
            deviation = np.abs(stack - mean)
            outliers = deviation > n_sigma * std
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
