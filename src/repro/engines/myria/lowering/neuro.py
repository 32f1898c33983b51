"""The neuro plan lowered to miniMyria (Section 4.3, Figure 7).

"We specify the overall pipeline in MyriaL, but call Python UDFs and
UDAs for all core image processing operations.  ... we execute a query
to compute the mask, which we broadcast across the cluster.  A second
query then computes the rest of the pipeline starting from a broadcast
join between the data and the mask."

Lowering contract notes: MyriaL text is *emitted* from the logical plan
by the ``*_query`` functions, each statement next to the plan ops it
realises (:class:`~repro.engines.myria.connection.PlanQuery`).  The
lowering makes three engine-specific structural choices the paper
documents:

* ``mean_b0`` + ``otsu`` fuse into one ``UDA(MeanOtsu, ...)`` (query 1);
* ``regroup`` + ``fitmodel`` fuse into one ``UDA(FitModel, ...)``
  (Myria's shuffle feeds the UDA directly, no separate regroup stage);
* ``mask_bcast`` + ``denoise`` lower to a ``BROADCAST(T2)`` join —
  Myria rebinds the plan's broadcast side-input as a relation join.
"""

import numpy as np

from repro.algorithms.dtm import fit_dtm, fractional_anisotropy
from repro.algorithms.nlmeans import nlmeans_3d
from repro.algorithms.otsu import median_otsu
from repro.data.catalog import NEURO_VOLUME_SHAPE
from repro.engines.base import LoweredPlan, udf
from repro.engines.myria.connection import MyriaQuery, PlanQuery
from repro.engines.myria.relation import Relation
from repro.formats.sizing import SizedArray
from repro.pipelines import common
from repro.pipelines.neuro.reference import reference_masks
from repro.pipelines.neuro.staging import (
    charge_nifti_conversion,
    gradient_tables,
)
from repro.plan.neuro import neuro_plan

IMAGES_COLUMNS = ("subjId", "imgId", "b0flag", "img")


_SCAN_IMAGES = "T1 = SCAN(Images);"


def _b0_select(plan, columns):
    """Lower the ``b0`` filter: the predicate pushes down to the scalar
    ``b0flag`` column the loader precomputes."""
    op = plan.member("b0")
    if op.kind != "filter" or op.param("predicate") != "is_b0":
        raise NotImplementedError(f"myria lowering: unexpected filter {op}")
    cols = ", ".join("T1." + c for c in columns)
    return ("b0",), f"B0 = [SELECT {cols} FROM T1 WHERE T1.b0flag = 1];"


def mask_query(plan):
    """Query 1: the ``b0 -> mean_b0 -> otsu -> masks`` segment, with the
    aggregate and the Otsu map fused into ``UDA(MeanOtsu)`` and the
    materialization lowered to a ``STORE``."""
    for op_id, kind in (("mean_b0", "group_by"), ("otsu", "map"),
                        ("masks", "materialize")):
        if plan.member(op_id).kind != kind:
            raise NotImplementedError(f"myria lowering: missing {op_id}")
    return PlanQuery(
        plan,
        _SCAN_IMAGES,
        _b0_select(plan, ("subjId", "img")),
        (("mean_b0", "otsu"),
         "Masks = [FROM B0 EMIT B0.subjId, UDA(MeanOtsu, B0.img) AS mask];"),
        "STORE(Masks, Mask);",
    )


def filter_query(plan):
    """Figure 12a's step: just the ``b0`` selection."""
    return PlanQuery(
        plan,
        _SCAN_IMAGES,
        _b0_select(plan, ("subjId", "imgId", "img")),
    )


def mean_query(plan):
    """Figure 12b's step: ``b0 -> mean_b0`` as ``UDA(MeanVol)``."""
    if plan.member("mean_b0").param("agg") != "mean_volume":
        raise NotImplementedError("myria lowering: unexpected mean agg")
    return PlanQuery(
        plan,
        _SCAN_IMAGES,
        _b0_select(plan, ("subjId", "img")),
        (("mean_b0",),
         "Means = [FROM B0 EMIT B0.subjId, UDA(MeanVol, B0.img) AS mean];"),
    )


def _denoise_statements(plan):
    """The broadcast join that realizes the plan's ``mask_bcast`` op,
    then ``denoise`` over the joined tuples."""
    if plan.member("denoise").uses != ("mask_bcast",):
        raise NotImplementedError("myria lowering: denoise must use the mask")
    return (
        _SCAN_IMAGES,
        "T2 = SCAN(Mask);",
        (("mask_bcast",),
         "Joined = [SELECT T1.subjId, T1.imgId, T1.img, T2.mask",
         "          FROM T1, BROADCAST(T2)",
         "          WHERE T1.subjId = T2.subjId];"),
        (("denoise",),
         "Denoised = [FROM Joined EMIT PYUDF(Denoise, Joined.img, Joined.mask) AS img,",
         "            Joined.subjId, Joined.imgId];"),
    )


def denoise_query(plan):
    """Figure 12c's step: ``mask_bcast -> denoise`` and nothing after."""
    return PlanQuery(plan, *_denoise_statements(plan))


def pipeline_query(plan):
    """Query 2: ``denoise -> repart -> regroup+fitmodel``, starting from
    the broadcast join."""
    if plan.member("regroup").param("key") != ("subject", "block"):
        raise NotImplementedError("myria lowering: unexpected regroup key")
    return PlanQuery(
        plan,
        *_denoise_statements(plan),
        (("repart",),
         "Blocks = [FROM Denoised EMIT",
         "          UNNEST(PYUDF(Repart, Denoised.img)) AS (blockId, imgId, block),",
         "          Denoised.subjId];"),
        (("regroup", "fitmodel"),
         "Fitted = [FROM Blocks EMIT Blocks.subjId, Blocks.blockId,",
         "          UDA(FitModel, Blocks.block, Blocks.imgId) AS fa];"),
    )


MASK_QUERY = mask_query(neuro_plan()).text
FILTER_QUERY = filter_query(neuro_plan()).text
MEAN_QUERY = mean_query(neuro_plan()).text
PIPELINE_QUERY = pipeline_query(neuro_plan()).text


def make_loader(subjects):
    """Staged volume -> Images row: (subjId, imgId, b0flag, img-blob)."""
    gtabs = gradient_tables(subjects)

    def loader(volume):
        subject_id = volume.meta["subject_id"]
        image_id = volume.meta["image_id"]
        b0flag = int(bool(gtabs[subject_id].b0s_mask[image_id]))
        return (subject_id, image_id, b0flag, volume)

    return loader


def _block_of(block, n_blocks, nz):
    """Recover the mask slice for a voxel block from its z extent."""
    bounds = np.linspace(0, nz, min(n_blocks, nz) + 1).astype(int)
    slices = [slice(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    block_id = block.meta.get("block_id")
    if block_id is not None:
        return slices[block_id]
    # Match by block height (blocks carry no id in their meta).
    for candidate in slices:
        if candidate.stop - candidate.start == block.array.shape[0]:
            return candidate
    return slice(0, nz)


class LoweredNeuro(LoweredPlan):
    """Executable produced by ``lower(neuro_plan(), conn)``."""

    def __init__(self, plan, conn):
        super().__init__(plan, conn)
        self.conn = conn
        self.bucket = plan.member_param("volumes", "bucket")
        self.n_blocks = plan.param("n_blocks")
        self.sigma = plan.param("sigma")
        self.median_radius = plan.param("median_radius")
        #: Masks keyed by subject, filled by the mask query before the
        #: second query runs (the paper broadcasts the Mask relation;
        #: the FitModel UDA additionally needs mask blocks, captured
        #: here driver-side).  Owned by this lowered object: two
        #: connections in one process never see each other's masks.
        self.masks = {}

    def ingest(self, subjects):
        """Ingest staged volumes into the ``Images`` relation.

        Each tuple is (subjId, imgId, b0flag, img-blob) -- "each tuple
        consisting of subject ID, image ID and image volume ... stored
        using the Myria blob data type" (Section 4.3), plus a scalar b0
        flag so the segmentation selection can be pushed into storage.
        """
        return self.conn.ingest_s3(
            "Images", self.bucket, IMAGES_COLUMNS, make_loader(subjects),
            partition_column="subjId", op=self.plan.provenance("volumes"),
        )

    def register_s3(self, subjects):
        """End-to-end path: scan the staged volumes directly from S3."""
        return self.conn.register_s3_relation(
            "Images", self.bucket, IMAGES_COLUMNS, make_loader(subjects)
        )

    def register_udfs(self, subjects, mask_fraction=0.45):
        """Register every Python UDF/UDA the queries call.

        The default ``mask_fraction`` prices the UDFs before the mask
        query has run; :meth:`run` re-registers with the measured one.
        """
        conn = self.conn
        cm = conn.cost_model
        gtabs = gradient_tables(subjects)
        n_blocks = self.n_blocks
        sigma = self.sigma
        median_radius = self.median_radius
        masks = self.masks

        def mean_otsu_uda(volumes):
            stack = np.stack([v.array for v in volumes], axis=-1)
            mean = stack.mean(axis=-1)
            _masked, mask = median_otsu(mean, median_radius=median_radius)
            return SizedArray(
                mask, nominal_shape=volumes[0].nominal_shape, meta=volumes[0].meta
            )

        def mean_otsu_cost(volumes):
            per = volumes[0].nominal_elements
            return per * len(volumes) * cm.elementwise_per_element + per * (
                cm.otsu_per_voxel + 27 * cm.elementwise_per_element
            )

        def mean_vol_uda(volumes):
            stack = np.stack([v.array for v in volumes], axis=-1)
            return volumes[0].with_array(stack.mean(axis=-1))

        def mean_vol_cost(volumes):
            return (
                volumes[0].nominal_elements * len(volumes) * cm.elementwise_per_element
            )

        def denoise(volume, mask):
            out = nlmeans_3d(volume.array, sigma=sigma, mask=mask.array)
            return volume.with_array(out)

        def repart(volume):
            rows = []
            for block_id, block in common.split_volume_blocks(volume, n_blocks):
                tagged = SizedArray(
                    block.array,
                    nominal_shape=block.nominal_shape,
                    meta={**block.meta, "block_id": block_id},
                )
                rows.append((block_id, volume.meta["image_id"], tagged))
            return rows

        def fit_model(blocks, image_ids):
            order = np.argsort(image_ids)
            stacked = np.stack([blocks[i].array for i in order], axis=-1)
            meta = blocks[0].meta
            subject_id = meta["subject_id"]
            gtab = gtabs[subject_id]
            mask = masks[subject_id]
            block_id = _block_of(blocks[0], n_blocks, mask.shape[0])
            mask_block = mask[block_id]
            evals = fit_dtm(stacked, gtab, mask=mask_block)
            fa = fractional_anisotropy(evals)
            return SizedArray(fa, nominal_shape=blocks[0].nominal_shape, meta=meta)

        def fit_cost(blocks, image_ids):
            elements = blocks[0].nominal_elements * len(blocks)
            return elements * mask_fraction * cm.dtm_fit_per_voxel_sample

        conn.create_function("MeanOtsu", udf(mean_otsu_uda, cost=mean_otsu_cost))
        conn.create_function("MeanVol", udf(mean_vol_uda, cost=mean_vol_cost))
        conn.create_function(
            "Denoise", udf(denoise, cost=common.denoise_cost(cm, mask_fraction))
        )
        conn.create_function("Repart", udf(repart, cost=common.repart_cost(cm)))
        conn.create_function("FitModel", udf(fit_model, cost=fit_cost))

    def compute_masks(self, mode):
        """Query 1: per-subject masks; stores the Mask relation."""
        query = mask_query(self.plan).submit(self.conn, mode=mode)
        self.masks.clear()
        for subj, mask in query.relation("Masks").rows:
            self.masks[subj] = mask.array.astype(bool)
        return dict(self.masks)

    def run(self, subjects, mode="pipelined", source="s3"):
        """End-to-end neuroscience pipeline on Myria.

        ``source`` is ``"s3"`` (the paper's end-to-end path: read staged
        NumPy volumes directly from S3) or ``"ingested"`` (scan
        previously ingested per-worker PostgreSQL storage).  Returns
        ``(masks, fa_by_subject)``.
        """
        if source == "s3":
            self.register_s3(subjects)
        elif source == "ingested":
            if not self.conn.server.catalog.get("Images"):
                self.ingest(subjects)
        else:
            raise ValueError(f"unknown source {source!r}")
        self.register_udfs(subjects)
        masks = self.compute_masks(mode)
        self.register_udfs(
            subjects, mask_fraction=common.mean_masked_fraction(masks)
        )
        query = pipeline_query(self.plan).submit(self.conn, mode=mode)
        fitted = query.relation("Fitted")
        fa_by_subject = {}
        for subj, block_id, fa_block in fitted.rows:
            fa_by_subject.setdefault(subj, {})[block_id] = fa_block
        fa = {
            subject: common.reassemble_blocks(by_id)
            for subject, by_id in fa_by_subject.items()
        }
        return masks, fa

    # -- step protocol -------------------------------------------------

    def _prepare_volumes(self, subjects):
        self.conn.ensure_started()
        self._subjects = subjects

    def _step_volumes(self):
        charge_nifti_conversion(
            self.conn.cluster, self._subjects, self.plan.provenance("volumes")
        )
        self.ingest(self._subjects)

    def _prepare_b0(self, subjects):
        self.ingest(subjects)
        self.register_udfs(subjects)

    _prepare_mean_b0 = _prepare_b0

    def _prepare_denoise(self, subjects):
        """Ingested volumes plus the stored ``Mask`` relation the
        broadcast join scans."""
        self.ingest(subjects)
        masks = reference_masks(subjects)
        self.register_udfs(
            subjects, mask_fraction=common.mean_masked_fraction(masks)
        )
        mask_rows = [
            (
                sid,
                SizedArray(
                    mask, nominal_shape=NEURO_VOLUME_SHAPE,
                    meta={"subject_id": sid},
                ),
            )
            for sid, mask in masks.items()
        ]
        # Input staging like the volume ingest beside it, so charged to
        # the scan as well.
        self.conn.ingest_relation(
            Relation.from_rows("Mask", ("subjId", "mask"), mask_rows), "subjId",
            op=self.plan.provenance("volumes"),
        )

    # A step submits bare text charged to the measured op: the whole
    # window -- submit, ``T1 = SCAN`` and the ``Joined`` broadcast join
    # included.

    def _step_b0(self):
        self._submit_step("b0", filter_query)

    def _step_mean_b0(self):
        self._submit_step("mean_b0", mean_query)

    def _step_denoise(self):
        self._submit_step("denoise", denoise_query)

    def _submit_step(self, op_id, emit):
        MyriaQuery.submit(
            self.conn, emit(self.plan).text, op=self.plan.provenance(op_id)
        )
