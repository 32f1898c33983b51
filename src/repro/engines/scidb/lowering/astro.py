"""The astro plan lowered (partially) to miniSciDB (Sections 4.1, 5.2.4).

Per Table 1, only data ingest and co-addition (Step 3-A) were
expressible in SciDB ("Co-addtion (Step 3-A) is expressed in 180 LoC of
AQL, along with 85 LoC Python code for ingesting FITS files"); the
pre-processing, patch-creation and source-detection steps were not
possible (X) or not applicable (NA).

Co-addition operates on calibrated exposures placed onto a global sky
array with a leading visit dimension, chunked at a configurable square
chunk size -- the Section 5.3.1 tuning knob ("a chunk size of
[1000x1000] of the LSST images leads to the best performance").

Lowering contract notes: ``scan`` becomes convert-then-ingest (FITS ->
CSV -> ``aio_input``); the ``coadd`` group_by lowers to the AQL coadd
query; ``preprocess`` and ``detect`` have no SciDB lowering and raise
(the mosaic staging applies calibration client-side before ingest so
the coadd still operates on calibrated pixels).  ``DEFAULT_CHUNK`` is a
physical knob of this backend, not plan data.
"""

import numpy as np

from repro.data.catalog import ASTRO_SENSOR_SHAPE
from repro.engines.base import LoweredPlan
from repro.engines.scidb.array import DimSpec
from repro.engines.scidb.ingest import aio_input
from repro.formats.sizing import SizedArray
from repro.pipelines.astro import reference as ref

#: The paper's best chunk size for Step 3-A.
DEFAULT_CHUNK = 1000


def sky_mosaic(visits):
    """Place each visit's calibrated exposures onto a common sky frame.

    Returns ``(stack, origin, nominal_shape)``: a real (visits, H, W)
    array with NaN where a visit has no coverage.
    """
    exposures = [e for v in visits for e in v.exposures]
    y0 = min(e.sky_box.y0 for e in exposures)
    x0 = min(e.sky_box.x0 for e in exposures)
    y1 = max(e.sky_box.y1 for e in exposures)
    x1 = max(e.sky_box.x1 for e in exposures)
    height, width = y1 - y0, x1 - x0
    stack = np.full((len(visits), height, width), np.nan)
    for vi, visit in enumerate(visits):
        for exposure in visit.exposures:
            calibrated = ref.preprocess_exposure(exposure)
            box = exposure.sky_box
            stack[
                vi, box.y0 - y0: box.y1 - y0, box.x0 - x0: box.x1 - x0
            ] = calibrated.flux
    scale_y = ASTRO_SENSOR_SHAPE[0] / exposures[0].shape[0]
    scale_x = ASTRO_SENSOR_SHAPE[1] / exposures[0].shape[1]
    nominal = (len(visits), int(height * scale_y), int(width * scale_x))
    return stack, (y0, x0), nominal


def preprocess_step(*_args, **_kwargs):
    """Step 1-A could not be implemented in SciDB (Table 1: X)."""
    raise NotImplementedError(
        "pre-processing is not expressible in AQL/AFL (Table 1: X)"
    )


def detect_step(*_args, **_kwargs):
    """Step 4-A could not be implemented in SciDB (Table 1: NA)."""
    raise NotImplementedError(
        "source detection is not expressible in AQL/AFL (Table 1: NA)"
    )


class LoweredAstro(LoweredPlan):
    """Executable produced by ``lower(astro_plan(), sdb)``.

    Only ``scan`` (ingest) and ``coadd`` lower; :meth:`preprocess_step`
    and :meth:`detect_step` raise per Table 1.  Each step passes its
    op's provenance id to the SciDB call that builds its tasks.
    """

    preprocess_step = staticmethod(preprocess_step)
    detect_step = staticmethod(detect_step)

    def __init__(self, plan, sdb):
        super().__init__(plan, sdb)
        self.sdb = sdb

    def ingest(self, visits, chunk=DEFAULT_CHUNK):
        """FITS -> CSV -> ``aio_input`` ingest of the visit mosaic.

        The paper: "We use the latter technique [aio_input] for the FITS
        files from the astronomy use case" (Section 4.1).
        """
        sdb = self.sdb
        stack, _origin, nominal = sky_mosaic(visits)
        n_visits, height, width = nominal
        dims = [
            DimSpec("visit", n_visits, n_visits),
            DimSpec("y", height, min(chunk, height)),
            DimSpec("x", width, min(chunk, width)),
        ]
        nominal_bytes = n_visits * height * width * 4
        op = self.plan.provenance("exposures")
        return aio_input(sdb, "sky", dims, stack, nominal_bytes, rank=3, op=op)

    def coadd_step(self, array, incremental=False):
        """Step 3-A in AQL (Figure 12d / the Section 5.2.4 ablation)."""
        return self.sdb.coadd_aql(
            array,
            n_sigma=ref.COADD_SIGMA,
            n_iter=ref.COADD_ITERATIONS,
            incremental=incremental,
            op=self.plan.provenance("coadd"),
        )

    def run(self, visits, chunk=DEFAULT_CHUNK, incremental=False):
        """Ingest + co-addition (the SciDB-expressible steps).

        Returns the coadded sky as a :class:`SizedArray`.
        """
        array = self.ingest(visits, chunk=chunk)
        coadd = self.coadd_step(array, incremental=incremental)
        return SizedArray(
            np.nan_to_num(coadd.real, nan=0.0), nominal_shape=coadd.nominal_shape
        )

    # -- step protocol -------------------------------------------------

    def _prepare_coadd(self, visits, **tuning):
        self._array = self.ingest(visits, **tuning)

    def _step_coadd(self, **tuning):
        self.coadd_step(self._array, **tuning)
