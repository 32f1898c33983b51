"""Cosmic-ray detection and repair (Step 1-A, astronomy).

"... detection and repair of cosmetic defects and cosmic rays ..."
(Section 3.2.2).  Cosmic rays hit single pixels or short streaks with
fluxes far above their surroundings and, unlike stars, are not smeared
by the point-spread function.  The detector flags pixels that exceed
the local median by many noise standard deviations; repair replaces
them with the local median, mirroring the morphological approach of
LA-Cosmic-style algorithms in simplified form.

Only a ``sharp`` candidate (a pixel far above its local median) can be
flagged, so the detector's guard -- the fine structure around a pixel,
a 7x7 median of the 3x3-smoothed image, and the contrast against it --
is taken at the candidates only, a few pixels of an exposure.  The
local median, the noise and the smoothed image itself span the whole
exposure: every pixel is tested for sharpness, and a candidate's 7x7
window reads the smoothed image around it.  Repair takes the medians
of the flagged pixels' windows only.  A pixel sees the operations a
whole-image pass applies to it, so the mask and the repaired image are
that pass's bytes (the test suite keeps it as the oracle).
"""

import numpy as np

from repro.algorithms.stencil import (
    median,
    median_filter_2d,
    sliding_windows,
    window_medians,
)


def detect_cosmic_rays(image, variance=None, n_sigma=6.0, radius=2,
                       objlim=3.0):
    """Boolean mask of cosmic-ray pixels.

    ``variance`` is the per-pixel noise variance plane (FITS files in
    the use case carry one); when absent a global robust estimate is
    used.  ``objlim`` is the LA-Cosmic-style fine-structure guard: a
    candidate must be at least ``objlim`` times sharper than the local
    fine structure, which protects PSF-wide star cores from being
    flagged while still catching un-smeared cosmic-ray hits.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {image.shape}")
    local_median = median_filter_2d(image, radius=radius)
    residual = image - local_median
    if variance is not None:
        variance = np.asarray(variance, dtype=np.float64)
        if variance.shape != image.shape:
            raise ValueError(
                f"variance shape {variance.shape} does not match image {image.shape}"
            )
        noise = np.sqrt(np.maximum(variance, 1e-12))
    else:
        # Robust global noise: 1.4826 * median absolute deviation.
        mad = median(np.abs(residual - median(residual)))
        noise = np.maximum(1.4826 * mad, 1e-12)
    sharp = residual > n_sigma * noise

    # Fine structure at each candidate: how much smooth (PSF-scale)
    # structure surrounds it.  Stars have large fine structure; isolated
    # cosmic rays do not.
    smooth3 = median_filter_2d(image, radius=1)
    fine = smooth3[sharp] - window_medians(
        sliding_windows(smooth3, 3)[sharp], 2)
    noise = np.broadcast_to(noise, image.shape)[sharp]
    with np.errstate(divide="ignore", invalid="ignore"):
        contrast = residual[sharp] / np.maximum(fine, noise)
    flagged = np.zeros_like(sharp)
    flagged[sharp] = contrast > objlim
    return flagged


def repair_cosmic_rays(image, cr_mask, radius=2):
    """Replace flagged pixels with the local median of their window."""
    image = np.asarray(image, dtype=np.float64)
    cr_mask = np.asarray(cr_mask, dtype=bool)
    if cr_mask.shape != image.shape:
        raise ValueError(
            f"mask shape {cr_mask.shape} does not match image {image.shape}"
        )
    repaired = image.copy()
    if radius == 0 or not cr_mask.any():
        return repaired
    repaired[cr_mask] = window_medians(
        sliding_windows(image, radius)[cr_mask], 2
    )
    return repaired
