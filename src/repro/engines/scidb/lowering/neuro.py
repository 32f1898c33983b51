"""The neuro plan lowered (partially) to miniSciDB (Section 4.1, Fig 5).

The paper could only express parts of this use case in SciDB: Step 1-N
(filter + mean, Figure 5) natively, and Step 2-N through the new
``stream()`` interface.  Step 3-N (model fitting) is **not applicable**
-- "SciDB ... lacks critical functions including high-dimensional
convolutions ... which makes the reimplementation of the use cases
highly nontrivial" (Table 1 marks Model Fitting NA).

Lowering contract notes: this is a pattern-matched subset lowering.
``scan`` becomes convert-then-ingest (CSV staging before ``aio_input``
or ``from_array`` — the paper's SciDB-2 vs SciDB-1 choice); ``b0``/
``mean_b0`` lower to native ``compress``/``mean`` over the chunked
array; ``otsu`` runs client-side (small result); ``denoise`` lowers to
``stream()``; ``fitmodel`` has no lowering and raises.  Chunk shape
(``VOLUME_CHUNK``) is a physical knob of this backend, not plan data.
"""

import numpy as np

from repro.algorithms.nlmeans import nlmeans_3d
from repro.algorithms.otsu import median_otsu
from repro.data.catalog import NEURO_N_VOLUMES, NEURO_VOLUME_SHAPE
from repro.engines.base import udf
from repro.engines.scidb.array import DimSpec
from repro.engines.scidb.ingest import aio_input, from_array
from repro.pipelines.neuro.reference import DENOISE_SIGMA, MASK_MEDIAN_RADIUS
from repro.plan.ir import provenance_id


def _pid(op_id):
    """Provenance id of a neuro-plan op.  SciDB steps run synchronously,
    so each step body opens an ambient ``obs.provenance`` scope and every
    task/charge it issues inherits the op."""
    return provenance_id("neuro", op_id)

#: Default per-dimension chunking for ingested subjects.  The volume
#: axis is chunked in groups of 16, which leaves the Step 1-N selection
#: misaligned with the chunk grid -- "the internal chunks are not
#: aligned with the selection" (Section 5.2.2).
VOLUME_CHUNK = 16


def subject_dims(subject):
    """Subject dims."""
    x, y, z = NEURO_VOLUME_SHAPE
    return [
        DimSpec("x", x, x),
        DimSpec("y", y, y),
        DimSpec("z", z, z),
        DimSpec("vol", NEURO_N_VOLUMES, VOLUME_CHUNK),
    ]


def cohort_dims(n_subjects):
    """Dimensions for a whole cohort in one 5-D array.

    Multi-subject studies ingest every subject into a single array with
    a leading subject dimension (chunked per subject), so one query
    spreads chunks across all instances.
    """
    x, y, z = NEURO_VOLUME_SHAPE
    return [DimSpec("subj", n_subjects, 1)] + subject_dims(None)


def ingest(sdb, subject, method="aio"):
    """Ingest one subject; ``method`` is ``"from_array"`` (SciDB-1 in
    Figure 11) or ``"aio"`` (SciDB-2)."""
    dims = subject_dims(subject)
    name = f"sub_{subject.subject_id}"
    with sdb.cluster.obs.provenance(_pid("volumes")):
        if method == "from_array":
            return from_array(
                sdb, name, dims, subject.data.array, subject.nominal_bytes
            )
        if method == "aio":
            # Dense arrays load from coordinate-free CSV (one value per
            # cell), the compact form SciDB's aio loader accepts.
            return aio_input(
                sdb, name, dims, subject.data.array, subject.nominal_bytes,
                rank=0,
            )
    raise ValueError(f"unknown ingest method {method!r}")


def filter_step(sdb, array, subject):
    """Figure 5 line 4: ``compress`` on the b0 mask along the 4th axis."""
    nominal_mask = _nominal_b0_mask(subject)
    with sdb.cluster.obs.provenance(_pid("b0")):
        return sdb.compress(array, nominal_mask, axis=3)


def mean_step(sdb, filtered):
    """Figure 5 line 5: mean along the volume axis."""
    with sdb.cluster.obs.provenance(_pid("mean_b0")):
        return sdb.mean(filtered, axis=3)


def segmentation(sdb, array, subject):
    """Step 1-N: filter, mean, then Otsu on the (small) mean volume.

    The Otsu threshold itself runs client-side on the fetched mean
    volume, as SciDB-py applications do for small results.
    """
    filtered = filter_step(sdb, array, subject)
    mean = mean_step(sdb, filtered)
    cm = sdb.cost_model
    sdb.cluster.charge_master(
        sdb.cluster.network.transfer_time(
            mean.nominal_bytes, "instances", "client"
        )
        + mean.nominal_elements
        * (cm.otsu_per_voxel + 27 * cm.elementwise_per_element),
        label="SciDB mask (client-side Otsu)",
        op=_pid("otsu"),
    )
    _masked, mask = median_otsu(mean.real, median_radius=MASK_MEDIAN_RADIUS)
    return mask


def denoise_step(sdb, array, mask):
    """Step 2-N via ``stream()``: each chunk crosses to an external
    Python process as TSV, is denoised with the reference code, and
    returns as TSV (Sections 4.1 and 5.2.3)."""
    cm = sdb.cost_model

    def denoise_chunk(payload, coords):
        out = np.empty_like(payload, dtype=np.float64)
        for v in range(payload.shape[-1]):
            out[..., v] = nlmeans_3d(payload[..., v], sigma=DENOISE_SIGMA, mask=mask)
        return out

    fraction = max(float(np.asarray(mask).mean()), 0.01)
    cell_scale = array.nominal_elements / max(1, array.real.size)

    def cost(payload, coords):
        nominal_voxels = payload.size * cell_scale
        return nominal_voxels * fraction * cm.nlmeans_per_voxel

    with sdb.cluster.obs.provenance(_pid("denoise")):
        return sdb.stream(array, udf(denoise_chunk, cost=cost))


def run(sdb, subject, ingest_method="aio"):
    """The SciDB-expressible part of the pipeline for one subject.

    Returns ``(mask, denoised_array)``; model fitting raises
    ``NotImplementedError`` by design (Table 1: NA).
    """
    array = ingest(sdb, subject, method=ingest_method)
    mask = segmentation(sdb, array, subject)
    denoised = denoise_step(sdb, array, mask)
    return mask, denoised


def fit_step(*_args, **_kwargs):
    """Step 3-N is not expressible in SciDB (Table 1)."""
    raise NotImplementedError(
        "SciDB lacks the operations required for model fitting"
        " (Section 4.1 / Table 1: NA)"
    )


def _nominal_b0_mask(subject):
    """Lift the subject's real b0 pattern onto the nominal 288-volume
    axis so that the proportional chunk mapping selects exactly the
    real b0 volumes.  At benchmark scale (288 real volumes) this is the
    identity; at test scale each real volume owns a stride of nominal
    positions and the stride head is marked."""
    real = subject.gtab.b0s_mask
    nominal = np.zeros(NEURO_N_VOLUMES, dtype=bool)
    stride = NEURO_N_VOLUMES // real.size
    for p in np.nonzero(real)[0]:
        nominal[p * stride] = True
    return nominal


# ----------------------------------------------------------------------
# Multi-subject (cohort) API: one 5-D array for a whole study, so the
# chunk grid spreads across every instance of a large deployment.
# ----------------------------------------------------------------------

def ingest_cohort(sdb, subjects, method="aio"):
    """Ingest all subjects into one array with a leading subject axis."""
    real = np.stack([s.data.array for s in subjects])
    dims = cohort_dims(len(subjects))
    nominal_bytes = sum(s.nominal_bytes for s in subjects)
    with sdb.cluster.obs.provenance(_pid("volumes")):
        if method == "from_array":
            return from_array(sdb, "cohort", dims, real, nominal_bytes)
        if method == "aio":
            return aio_input(sdb, "cohort", dims, real, nominal_bytes, rank=0)
    raise ValueError(f"unknown ingest method {method!r}")


def filter_step_cohort(sdb, array, subjects):
    """Step 1-N filter over the cohort array (volume axis is axis 4)."""
    nominal_mask = _nominal_b0_mask(subjects[0])
    with sdb.cluster.obs.provenance(_pid("b0")):
        return sdb.compress(array, nominal_mask, axis=4)


def mean_step_cohort(sdb, filtered):
    """Step 1-N mean over the cohort array's volume axis."""
    with sdb.cluster.obs.provenance(_pid("mean_b0")):
        return sdb.mean(filtered, axis=4)


def denoise_step_cohort(sdb, array, masks_by_subject_index):
    """Step 2-N via ``stream()`` over the cohort array.

    Each chunk holds one subject's volumes (the subject axis is chunked
    at 1), so the external process picks the right mask from the chunk
    coordinates.
    """
    cm = sdb.cost_model
    cell_scale = array.nominal_elements / max(1, array.real.size)
    fractions = {
        index: max(float(np.asarray(mask).mean()), 0.01)
        for index, mask in masks_by_subject_index.items()
    }

    def denoise_chunk(payload, coords):
        mask = masks_by_subject_index[coords[0]]
        volumes = payload[0]
        out = np.empty_like(volumes, dtype=np.float64)
        for v in range(volumes.shape[-1]):
            out[..., v] = nlmeans_3d(
                volumes[..., v], sigma=DENOISE_SIGMA, mask=mask
            )
        return out[None, ...]

    def cost(payload, coords):
        nominal_voxels = payload.size * cell_scale
        return nominal_voxels * fractions[coords[0]] * cm.nlmeans_per_voxel

    with sdb.cluster.obs.provenance(_pid("denoise")):
        return sdb.stream(array, udf(denoise_chunk, cost=cost))


class LoweredNeuro:
    """Executable produced by ``lower(neuro_plan(), sdb)``.

    Only the plan segment through ``denoise`` is lowered; calling
    :meth:`fit_step` raises like the paper's Table 1 NA cell.
    """

    fit_step = staticmethod(fit_step)

    def __init__(self, plan, sdb):
        self.plan = plan
        self.sdb = sdb

    def run(self, subject, ingest_method="aio"):
        return run(self.sdb, subject, ingest_method=ingest_method)
