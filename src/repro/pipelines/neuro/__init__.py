"""The neuroscience (diffusion MRI) use case.

Pipeline steps (Section 3.1.2, Figure 1):

1. **Segmentation** -- select the b0 volumes, average them, apply
   median-Otsu to build a per-subject brain mask.
2. **Denoising** -- non-local means on each volume, restricted to the
   mask.
3. **Model fitting** -- flatmap volumes into voxel blocks, group the
   288 values per voxel, fit the diffusion tensor, output FA.
"""

from repro.pipelines.neuro.reference import run_reference

__all__ = ["run_reference"]
