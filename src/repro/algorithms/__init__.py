"""Reference scientific algorithms used by both pipelines.

These play the role of the paper's "reference implementation written in
Python" (Dipy for neuroscience, the LSST stack for astronomy): plain
NumPy functions that the engines invoke as user-defined code.  Every
algorithm is implemented from scratch here; no external scientific
packages are required.
"""

from repro.algorithms.background import estimate_background, subtract_background
from repro.algorithms.coadd import coadd_stack, sigma_clip_stack
from repro.algorithms.cosmicray import detect_cosmic_rays, repair_cosmic_rays
from repro.algorithms.dtm import (
    GradientTable,
    design_matrix,
    fit_dtm,
    fractional_anisotropy,
    tensor_eigenvalues,
)
from repro.algorithms.nlmeans import nlmeans_3d
from repro.algorithms.otsu import median_otsu, otsu_threshold
from repro.algorithms.patches import PatchGrid, SkyBox
from repro.algorithms.sources import Source, detect_sources, label_regions
from repro.algorithms.stencil import convolve3d, median_filter_3d

__all__ = [
    "GradientTable",
    "PatchGrid",
    "SkyBox",
    "Source",
    "coadd_stack",
    "convolve3d",
    "design_matrix",
    "detect_cosmic_rays",
    "detect_sources",
    "estimate_background",
    "fit_dtm",
    "fractional_anisotropy",
    "label_regions",
    "median_filter_3d",
    "median_otsu",
    "nlmeans_3d",
    "otsu_threshold",
    "repair_cosmic_rays",
    "sigma_clip_stack",
    "subtract_background",
    "tensor_eigenvalues",
]
