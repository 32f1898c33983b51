"""The neuro plan lowered to miniSpark (Section 4.2, Figure 6).

The lowering mirrors the paper's structure: pair records keyed by
(subject, image) with NumPy-array values, the mask as a broadcast
variable to avoid a join, and the Figure 6 chain::

    modelsRDD = imgRDD.map(denoise).flatMap(repart)
                      .groupBy(subject, block).map(regroup).map(fitmodel)

The step protocol (figures 11, 12a-c) comes from the walker; this
class adds what the neuro steps read besides their input RDD: the
NIfTI conversion the measured ingest pays for, and the broadcast masks
the denoise step closes over.
"""

import numpy as np

from repro.engines.base import udf
from repro.engines.spark.lowering.walker import ChainWalker
from repro.formats.sizing import SizedArray
from repro.pipelines import common
from repro.pipelines.neuro import reference as ref
from repro.pipelines.neuro.staging import (
    charge_nifti_conversion,
    gradient_tables,
)


class LoweredNeuro(ChainWalker):
    """Executable produced by ``lower(neuro_plan(), sc)``."""

    scan_id = "volumes"

    def __init__(self, plan, sc):
        super().__init__(plan, sc)
        self.n_blocks = plan.param("n_blocks")
        self.sigma = plan.param("sigma")
        self.median_radius = plan.param("median_radius")
        self.subjects = None
        self.gtabs = None
        self.masks_b = None
        self.mask_fraction = None

    def bind(self, subjects):
        self.subjects = subjects
        self.gtabs = gradient_tables(subjects)

    # -- kernel factories, one per logical op --------------------------

    def _udf_b0(self):
        gtabs = self.gtabs

        def is_b0(volume):
            gtab = gtabs[volume.meta["subject_id"]]
            return bool(gtab.b0s_mask[volume.meta["image_id"]])

        return is_b0

    def _udf_mean_b0(self):
        cm = self.sc.cost_model

        def to_pair(volume):
            return volume.meta["subject_id"], (volume.array.astype(np.float64), 1, volume)

        def add(a, b):
            return a[0] + b[0], a[1] + b[1], a[2]

        def add_cost(a, b):
            return common.mean_time(cm, a[2].nominal_elements)

        def finish(acc):
            total, count, volume = acc
            return SizedArray(
                total / count, nominal_shape=volume.nominal_shape, meta=volume.meta
            )

        return to_pair, udf(add, cost=add_cost), finish

    def _udf_otsu(self):
        cm = self.sc.cost_model
        median_radius = self.median_radius

        def to_mask(mean_volume):
            return ref.mask_of_mean(mean_volume.array, median_radius)

        return "mapValues", udf(to_mask, cost=common.otsu_cost(cm))

    def _udf_denoise(self):
        cm = self.sc.cost_model
        masks_b = self.masks_b
        sigma = self.sigma

        def denoise(volume):
            mask = masks_b.value[volume.meta["subject_id"]]
            return volume.with_array(ref.denoise_volume(volume.array, mask, sigma))

        return "map", udf(denoise, cost=common.denoise_cost(cm, self.mask_fraction))

    def _udf_repart(self):
        cm = self.sc.cost_model
        n_blocks = self.n_blocks

        def repart(volume):
            pairs = []
            for block_id, block in common.split_volume_blocks(volume, n_blocks):
                key = (volume.meta["subject_id"], block_id)
                pairs.append((key, (volume.meta["image_id"], block)))
            return pairs

        return udf(repart, cost=common.repart_cost(cm))

    def _udf_regroup(self):
        cm = self.sc.cost_model

        def regroup(kv):
            key, entries = kv
            stacked = ref.stack_images((i, block.array) for i, block in entries)
            nominal = entries[0][1].nominal_shape + (len(entries),)
            return key, SizedArray(stacked, nominal_shape=nominal)

        def regroup_cost(kv):
            _key, entries = kv
            return sum(e[1].nominal_bytes for e in entries) * cm.memcpy_per_byte

        return None, udf(regroup, cost=regroup_cost)

    def _udf_fitmodel(self):
        cm = self.sc.cost_model
        gtabs = self.gtabs
        masks_b = self.masks_b
        n_blocks = self.n_blocks
        mask_fraction = self.mask_fraction

        def fitmodel(kv):
            (subject_id, block_id), stacked = kv
            fa = ref.fit_block(stacked.array, gtabs[subject_id],
                               masks_b.value[subject_id], n_blocks, block_id)
            nominal = stacked.nominal_shape[:-1]
            return (subject_id, block_id), SizedArray(fa, nominal_shape=nominal)

        def fit_cost(kv):
            _key, stacked = kv
            return common.fit_time(cm, stacked.nominal_elements, mask_fraction)

        return "map", udf(fitmodel, cost=fit_cost)

    # -- step entry points ---------------------------------------------

    def segmentation(self, img_rdd):
        """Step 1-N: returns ``{subject_id: mask ndarray}``."""
        masks_rdd = self.lower_chain(
            img_rdd, self.plan.expanded_chain("b0", "masks")
        )
        return dict(masks_rdd.collect())

    def denoise_and_fit(self, img_rdd, masks, group_partitions=None):
        """Steps 2-N and 3-N (the Figure 6 chain); returns
        ``{subject_id: fa SizedArray}``."""
        self.group_partitions = group_partitions
        self._broadcast_masks(masks)
        models = self.lower_chain(
            img_rdd, self.plan.expanded_chain("denoise", "fa")
        )
        blocks = models.collect()

        fa_by_subject = {}
        for (subject_id, block_id), fa_block in blocks:
            fa_by_subject.setdefault(subject_id, {})[block_id] = fa_block
        return {
            subject: common.reassemble_blocks(by_id)
            for subject, by_id in fa_by_subject.items()
        }

    def _broadcast_masks(self, masks):
        """Lower ``mask_bcast``: ship the masks to every executor."""
        self.mask_fraction = common.mean_masked_fraction(masks)
        mask_bytes = sum(m.size for m in masks.values())
        op = self.plan.provenance("mask_bcast")
        self.masks_b = self.sc.broadcast(masks, nominal_bytes=mask_bytes, op=op)

    def run(self, subjects, input_partitions=None, group_partitions=None,
            cache_input=False):
        """End-to-end neuroscience pipeline on Spark.

        Data must already be staged (see
        :func:`repro.pipelines.neuro.staging.stage_subjects`).  Returns
        ``(masks, fa_by_subject)``.
        """
        self.bind(subjects)
        img_rdd = self.scan(partitions=input_partitions, cache=cache_input)
        masks = self.segmentation(img_rdd)
        fa = self.denoise_and_fit(
            img_rdd, masks, group_partitions=group_partitions
        )
        return masks, fa

    # -- step protocol: what the walker cannot know --------------------

    def prepare(self, op_id, subjects):
        super().prepare(op_id, subjects)
        if self.plan.member(op_id).uses:  # denoise closes over the masks
            self._broadcast_masks(ref.reference_masks(subjects))

    def _scan_step(self):
        charge_nifti_conversion(
            self.sc.cluster, self.subjects, self.plan.provenance(self.scan_id)
        )
        return super()._scan_step()
