"""The two end-to-end use cases (Section 3).

- :mod:`repro.pipelines.neuro` -- the diffusion-MRI pipeline:
  segmentation, denoising, model fitting (Section 3.1.2).
- :mod:`repro.pipelines.astro` -- the LSST-style pipeline:
  pre-processing, patch creation, co-addition, source detection
  (Section 3.2.2).

Each has a single-process ``reference`` implementation (the ground
truth all engine implementations are tested against) and a ``staging``
module; the per-engine implementations of Table 1 are the lowerings of
:mod:`repro.plan` under ``repro.engines.<engine>.lowering``.
"""
