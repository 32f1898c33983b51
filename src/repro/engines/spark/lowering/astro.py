"""The astro plan lowered to miniSpark (Section 4.2).

Same structure as the neuroscience case: pair RDDs keyed by image
fragment identifiers, reference step functions as lambdas, shuffles at
the two grouping points (patch creation and co-addition).
"""

from repro.engines.base import udf
from repro.engines.spark.lowering.walker import ChainWalker
from repro.pipelines import common
from repro.pipelines.astro import reference as ref
from repro.pipelines.astro.staging import DEFAULT_BUCKET
from repro.plan.astro import astro_plan


class LoweredAstro(ChainWalker):
    """Executable produced by ``lower(astro_plan(), sc)``."""

    def __init__(self, plan, sc):
        self.plan = plan
        self.sc = sc
        self.grid = None
        self.pixel_scale = None
        self.group_partitions = None

    # -- kernel factories, one per logical op --------------------------

    def _udf_preprocess(self):
        cm = self.sc.cost_model
        return "map", udf(ref.preprocess_exposure, cost=common.preprocess_cost(cm))

    def _udf_patches(self):
        cm = self.sc.cost_model
        grid = self.grid
        pixel_scale = self.pixel_scale

        def to_pieces(exposure):
            return ref.patch_pieces(exposure, grid, pixel_scale)

        return udf(to_pieces, cost=common.patch_map_cost(cm))

    def _udf_stitch(self):
        cm = self.sc.cost_model

        def stitch(kv):
            key, group = kv
            return key, ref.stitch_pieces(group)

        def stitch_cost(kv):
            return common.stitch_cost(cm)(kv[1])

        return None, udf(stitch, cost=stitch_cost)

    def _udf_coadd(self):
        cm = self.sc.cost_model

        def rekey(kv):
            (patch_id, visit_id), stitched = kv
            return patch_id, (visit_id, stitched)

        def coadd(kv):
            patch_id, entries = kv
            ordered = [s for _v, s in sorted(entries, key=lambda e: e[0])]
            return patch_id, ref.coadd_patch(ordered)

        def coadd_cost(kv):
            return common.coadd_cost(cm, ref.COADD_ITERATIONS)(
                [s for _v, s in kv[1]]
            )

        return rekey, udf(coadd, cost=coadd_cost)

    def _udf_detect(self):
        cm = self.sc.cost_model

        def detect(kv):
            patch_id, coadd_img = kv
            return patch_id, (coadd_img, ref.detect(coadd_img))

        def detect_cost(kv):
            return common.detect_cost(cm)(kv[1])

        return "map", udf(detect, cost=detect_cost)

    # -- step entry points ---------------------------------------------

    def scan(self, partitions=None, cache=False):
        op = self.plan.member("exposures")
        rdd = self.sc.s3_objects(op.param("bucket"), numPartitions=partitions)
        rdd.plan_op = self.plan.provenance("exposures")
        if cache:
            rdd = rdd.cache()
        return rdd

    def run(self, visits, input_partitions=None, group_partitions=None,
            grid=None):
        """End-to-end astronomy pipeline; returns ``(coadds, sources)``."""
        exposures = [e for v in visits for e in v.exposures]
        if grid is None:
            grid = ref.default_patch_grid(exposures[0].shape)
        self.grid = grid
        self.pixel_scale = ref.nominal_pixel_scale(
            exposures[0].shape, exposures[0].bundle
        )
        self.group_partitions = group_partitions

        exp_rdd = self.scan(partitions=input_partitions)
        results = self.lower_chain(
            exp_rdd, self.plan.expanded_chain("preprocess", "sources")
        ).collect()

        coadds = {patch: coadd_img for patch, (coadd_img, _s) in results}
        sources = {patch: srcs for patch, (_c, srcs) in results}
        return coadds, sources


# -- hand-written-era API, now plan-backed -----------------------------


def build_exposure_rdd(sc, partitions=None, bucket=DEFAULT_BUCKET, cache=False):
    """Build exposure rdd."""
    return LoweredAstro(astro_plan(bucket=bucket), sc).scan(
        partitions=partitions, cache=cache
    )


def run(sc, visits, input_partitions=None, group_partitions=None,
        bucket=DEFAULT_BUCKET, grid=None):
    return LoweredAstro(astro_plan(bucket=bucket), sc).run(
        visits, input_partitions=input_partitions,
        group_partitions=group_partitions, grid=grid,
    )
