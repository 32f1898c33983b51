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

Each step passes its op's provenance id to the SciDB call that builds
its tasks and charges (``op=``).  ``run()`` lowers one subject into its own 4-D array; the step
protocol (figures 11, 12a-c) and F16 work on whole cohorts in one 5-D
array, so the chunk grid spreads across every instance of a large
deployment -- except the measured ingest of figure 11, which loads
subject by subject as the paper's two ingest strategies did.
"""

import numpy as np

from repro.algorithms.nlmeans import nlmeans_3d
from repro.algorithms.otsu import median_otsu
from repro.data.catalog import NEURO_N_VOLUMES, NEURO_VOLUME_SHAPE
from repro.engines.base import LoweredPlan, udf
from repro.engines.scidb.array import DimSpec
from repro.engines.scidb.ingest import aio_input, from_array
from repro.pipelines.neuro.reference import compute_mask

#: Default per-dimension chunking for ingested subjects.  The volume
#: axis is chunked in groups of 16, which leaves the Step 1-N selection
#: misaligned with the chunk grid -- "the internal chunks are not
#: aligned with the selection" (Section 5.2.2).
VOLUME_CHUNK = 16

def subject_dims():
    """One subject: (x, y, z, vol)."""
    x, y, z = NEURO_VOLUME_SHAPE
    return [
        DimSpec("x", x, x),
        DimSpec("y", y, y),
        DimSpec("z", z, z),
        DimSpec("vol", NEURO_N_VOLUMES, VOLUME_CHUNK),
    ]


def cohort_dims(n_subjects):
    """A whole cohort in one 5-D array: a leading subject dimension
    chunked per subject, so one query spreads chunks across all
    instances."""
    return [DimSpec("subj", n_subjects, 1)] + subject_dims()


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


class LoweredNeuro(LoweredPlan):
    """Executable produced by ``lower(neuro_plan(), sdb)``.

    Only the plan segment through ``denoise`` is lowered; calling
    :meth:`fit_step` raises like the paper's Table 1 NA cell.
    """

    fit_step = staticmethod(fit_step)

    def __init__(self, plan, sdb):
        super().__init__(plan, sdb)
        self.sdb = sdb
        self.sigma = plan.param("sigma")
        self.median_radius = plan.param("median_radius")

    def _load(self, name, dims, real, nominal_bytes, method):
        """``method`` is ``"from_array"`` (SciDB-1 in Figure 11) or
        ``"aio"`` (SciDB-2)."""
        op = self.plan.provenance("volumes")
        if method == "from_array":
            return from_array(self.sdb, name, dims, real, nominal_bytes, op=op)
        if method == "aio":
            # Dense arrays load from coordinate-free CSV (one value per
            # cell), the compact form SciDB's aio loader accepts.
            return aio_input(
                self.sdb, name, dims, real, nominal_bytes, rank=0, op=op
            )
        raise ValueError(f"unknown ingest method {method!r}")

    # -- one subject, one 4-D array ------------------------------------

    def ingest(self, subject, method):
        """Ingest one subject as array ``sub_<id>``."""
        return self._load(
            f"sub_{subject.subject_id}", subject_dims(),
            subject.data.array, subject.nominal_bytes, method,
        )

    def filter_step(self, array, subject, axis):
        """Figure 5 line 4: ``compress`` on the b0 mask along the volume
        axis (``axis`` 3 of a subject array, 4 of a cohort array)."""
        op = self.plan.provenance("b0")
        return self.sdb.compress(array, _nominal_b0_mask(subject), axis, op=op)

    def mean_step(self, filtered, axis):
        """Figure 5 line 5: mean along the volume axis."""
        op = self.plan.provenance("mean_b0")
        return self.sdb.mean(filtered, axis=axis, op=op)

    def segmentation(self, array, subject):
        """Step 1-N: filter, mean, then Otsu on the (small) mean volume.

        The Otsu threshold itself runs client-side on the fetched mean
        volume, as SciDB-py applications do for small results.
        """
        sdb = self.sdb
        mean = self.mean_step(self.filter_step(array, subject, 3), 3)
        cm = sdb.cost_model
        sdb.cluster.charge_master(
            sdb.cluster.network.transfer_time(
                mean.nominal_bytes, "instances", "client"
            )
            + mean.nominal_elements
            * (cm.otsu_per_voxel + 27 * cm.elementwise_per_element),
            label="SciDB mask (client-side Otsu)",
            op=self.plan.provenance("otsu"),
        )
        _masked, mask = median_otsu(mean.real, median_radius=self.median_radius)
        return mask

    def denoise_step(self, array, mask_of_chunk, volumes_of_chunk):
        """Step 2-N via ``stream()``: each chunk crosses to an external
        Python process as TSV, is denoised with the reference code, and
        returns as TSV (Sections 4.1 and 5.2.3).

        ``mask_of_chunk(coords)`` picks the chunk's mask and
        ``volumes_of_chunk(payload)`` its ``(x, y, z, vol)`` view: the
        whole payload of a subject array, ``payload[0]`` of a cohort
        array (whose subject axis is chunked at 1).
        """
        cm = self.sdb.cost_model
        sigma = self.sigma
        cell_scale = array.nominal_elements / max(1, array.real.size)

        def denoise_chunk(payload, coords):
            volumes = volumes_of_chunk(payload)
            mask = mask_of_chunk(coords)
            out = np.empty_like(volumes, dtype=np.float64)
            for v in range(volumes.shape[-1]):
                out[..., v] = nlmeans_3d(volumes[..., v], sigma=sigma, mask=mask)
            return out.reshape(payload.shape)

        def cost(payload, coords):
            fraction = max(float(np.asarray(mask_of_chunk(coords)).mean()), 0.01)
            nominal_voxels = payload.size * cell_scale
            return nominal_voxels * fraction * cm.nlmeans_per_voxel

        op = self.plan.provenance("denoise")
        return self.sdb.stream(array, udf(denoise_chunk, cost=cost), op=op)

    def run(self, subject, ingest_method="aio"):
        """The SciDB-expressible part of the pipeline for one subject.

        Returns ``(mask, denoised_array)``; model fitting raises
        ``NotImplementedError`` by design (Table 1: NA).
        """
        array = self.ingest(subject, ingest_method)
        mask = self.segmentation(array, subject)
        denoised = self.denoise_step(array, lambda coords: mask, lambda p: p)
        return mask, denoised

    # -- a cohort, one 5-D array ---------------------------------------

    def ingest_cohort(self, subjects, method):
        """Ingest all subjects into one array with a leading subject axis."""
        return self._load(
            "cohort", cohort_dims(len(subjects)),
            np.stack([s.data.array for s in subjects]),
            sum(s.nominal_bytes for s in subjects), method,
        )

    def filter_step_cohort(self, array, subjects):
        return self.filter_step(array, subjects[0], 4)

    def mean_step_cohort(self, filtered):
        return self.mean_step(filtered, 4)

    def denoise_step_cohort(self, array, masks):
        """Step 2-N over the cohort array; ``masks`` are ordered like
        its subject axis, so the external process picks each chunk's
        mask from its subject coordinate."""
        return self.denoise_step(
            array, lambda coords: masks[coords[0]], lambda p: p[0]
        )

    # -- step protocol -------------------------------------------------

    def _prepare_volumes(self, subjects):
        self.sdb.ensure_started()
        self._subjects = subjects

    def _step_volumes(self, method):
        for subject in self._subjects:
            self.ingest(subject, method)

    def _prepare_b0(self, subjects):
        self._subjects = subjects
        self._array = self.ingest_cohort(subjects, "aio")

    def _prepare_denoise(self, subjects):
        self._prepare_b0(subjects)
        self._masks = [compute_mask(s) for s in subjects]

    def _prepare_mean_b0(self, subjects):
        self._prepare_b0(subjects)
        self._filtered = self.filter_step_cohort(self._array, subjects)

    def _step_b0(self):
        self.filter_step_cohort(self._array, self._subjects)

    def _step_mean_b0(self):
        self.mean_step_cohort(self._filtered)

    def _step_denoise(self):
        self.denoise_step_cohort(self._array, self._masks)
