"""The astronomy (LSST-style) use case.

Pipeline steps (Section 3.2.2, Figure 3):

1. **Pre-Processing** -- background estimation/subtraction, cosmic-ray
   detection and repair per exposure.
2. **Patch Creation** -- flatmap exposures onto overlapping sky patches,
   group per (patch, visit) into new exposure objects.
3. **Co-addition** -- per patch, iterative 3-sigma outlier removal (two
   cleaning iterations) then sum across visits.
4. **Source Detection** -- threshold + cluster detection on each Coadd.
"""

from repro.pipelines.astro.reference import run_reference

__all__ = ["run_reference"]
