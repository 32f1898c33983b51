"""Single-process reference implementation of the neuroscience pipeline.

Plays the role of the domain scientists' implementation: "Our reference
implementation is written in Python and Cython using Dipy and executes
as a single process on one machine." (Section 3.1.2.)  Every engine
implementation must reproduce these outputs exactly on the same data.
"""

import numpy as np

from repro.algorithms.dtm import fit_dtm, fractional_anisotropy
from repro.algorithms.nlmeans import nlmeans_3d
from repro.algorithms.otsu import median_otsu

#: Noise level assumed by the denoiser (matches the generator's sigma).
DENOISE_SIGMA = 12.0
#: Median-filter radius for the mask (kept small for scaled volumes).
MASK_MEDIAN_RADIUS = 1


def compute_mask(subject):
    """Step 1-N: mean of b0 volumes -> median-Otsu brain mask."""
    data = subject.data.array
    b0 = data[..., subject.gtab.b0s_mask]
    mean_b0 = b0.mean(axis=-1)
    _masked, mask = median_otsu(mean_b0, median_radius=MASK_MEDIAN_RADIUS)
    return mask


def reference_masks(subjects):
    """``{subject_id: mask}`` computed driver-side: the materialized
    segmentation result a denoise micro-benchmark starts from."""
    return {s.subject_id: compute_mask(s) for s in subjects}


def denoise_volume(volume, mask, sigma=DENOISE_SIGMA):
    """Step 2-N: non-local means on one volume, masked."""
    return nlmeans_3d(volume, sigma=sigma, mask=mask)


def denoise_subject(subject, mask):
    """Denoise subject."""
    data = subject.data.array
    out = np.empty_like(data, dtype=np.float64)
    for index in range(data.shape[-1]):
        out[..., index] = denoise_volume(data[..., index], mask)
    return out


def fit_subject(denoised, gtab, mask):
    """Step 3-N: per-voxel DTM fit -> FA map."""
    evals = fit_dtm(denoised, gtab, mask=mask)
    return fractional_anisotropy(evals)


def run_reference(subject):
    """The full pipeline for one subject.

    Returns ``(mask, denoised, fa)``.
    """
    mask = compute_mask(subject)
    denoised = denoise_subject(subject, mask)
    fa = fit_subject(denoised, subject.gtab, mask)
    return mask, denoised, fa
