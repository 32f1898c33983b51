"""Single-process reference implementation of the neuroscience pipeline.

Plays the role of the domain scientists' implementation: "Our reference
implementation is written in Python and Cython using Dipy and executes
as a single process on one machine." (Section 3.1.2.)  The step
functions here are reused by every engine implementation but
TensorFlow's rewrite as their user-defined code, so outputs can be
compared exactly.
"""

import numpy as np

from repro.algorithms.dtm import fit_dtm, fractional_anisotropy
from repro.algorithms.nlmeans import nlmeans_3d
from repro.algorithms.otsu import median_otsu
from repro.pipelines.common import block_z_bounds

#: Noise level assumed by the denoiser (matches the generator's sigma).
DENOISE_SIGMA = 12.0
#: Median-filter radius for the mask (kept small for scaled volumes).
MASK_MEDIAN_RADIUS = 1


def mean_volume(volumes):
    """Step 1-N's mean: 3-d volumes stacked in order, then averaged."""
    return np.stack(volumes, axis=-1).mean(axis=-1)


def mask_of_mean(mean_b0, median_radius=MASK_MEDIAN_RADIUS):
    """Step 1-N's mask: median-Otsu on a b0 mean."""
    _masked, mask = median_otsu(mean_b0, median_radius=median_radius)
    return mask


def compute_mask(subject):
    """Step 1-N: mean of b0 volumes -> median-Otsu brain mask."""
    data = subject.data.array
    b0 = np.nonzero(subject.gtab.b0s_mask)[0]
    return mask_of_mean(mean_volume([data[..., i] for i in b0]))


def reference_masks(subjects):
    """``{subject_id: mask}`` computed driver-side: the materialized
    segmentation result a denoise micro-benchmark starts from."""
    return {s.subject_id: compute_mask(s) for s in subjects}


def denoise_volume(volume, mask, sigma=DENOISE_SIGMA):
    """Step 2-N: non-local means on one volume, masked."""
    return nlmeans_3d(volume, sigma=sigma, mask=mask)


def denoise_volumes(volumes, mask, sigma=DENOISE_SIGMA):
    """Step 2-N on a 4-d stack: each volume of the last axis denoised."""
    out = np.empty_like(volumes, dtype=np.float64)
    for index in range(volumes.shape[-1]):
        out[..., index] = denoise_volume(volumes[..., index], mask, sigma)
    return out


def stack_images(entries):
    """Step 3-N's regroup: ``(image_id, array)`` entries stacked along a
    last axis in image order."""
    ordered = sorted(entries, key=lambda entry: entry[0])
    return np.stack([array for _image_id, array in ordered], axis=-1)


def mask_block(mask, n_blocks, block_id):
    """The cut of a brain mask that lines up with voxel block
    ``block_id`` of :func:`repro.pipelines.common.split_volume_blocks`."""
    bounds = block_z_bounds(mask.shape[0], n_blocks)
    return mask[bounds[block_id]:bounds[block_id + 1]]


def fit_block(stacked, gtab, mask, n_blocks, block_id):
    """Step 3-N on one voxel block: its stacked signals fitted under its
    cut of the subject's mask."""
    return fit_subject(stacked, gtab, mask_block(mask, n_blocks, block_id))


def fit_subject(denoised, gtab, mask):
    """Step 3-N: per-voxel DTM fit -> FA map."""
    evals = fit_dtm(denoised, gtab, mask=mask)
    return fractional_anisotropy(evals)


def run_reference(subject):
    """The full pipeline for one subject.

    Returns ``(mask, denoised, fa)``.
    """
    mask = compute_mask(subject)
    denoised = denoise_volumes(subject.data.array, mask)
    fa = fit_subject(denoised, subject.gtab, mask)
    return mask, denoised, fa
