"""The astro plan lowered to miniSpark (Section 4.2).

Same structure as the neuroscience case: pair RDDs keyed by image
fragment identifiers, reference step functions as lambdas, shuffles at
the two grouping points (patch creation and co-addition).  The step
protocol (figure 12d) is the walker's, unchanged.
"""

from repro.engines.base import udf
from repro.engines.spark.lowering.walker import ChainWalker
from repro.pipelines import common
from repro.pipelines.astro import reference as ref


class LoweredAstro(ChainWalker):
    """Executable produced by ``lower(astro_plan(), sc)``."""

    scan_id = "exposures"

    def __init__(self, plan, sc):
        super().__init__(plan, sc)
        self.grid = None
        self.pixel_scale = None

    def bind(self, visits):
        first = visits[0].exposures[0]
        self.grid = ref.default_patch_grid(first.shape)
        self.pixel_scale = ref.nominal_pixel_scale(first.shape, first.bundle)

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

    def run(self, visits, input_partitions=None, group_partitions=None,
            grid=None):
        """End-to-end astronomy pipeline; returns ``(coadds, sources)``."""
        self.bind(visits)
        if grid is not None:
            self.grid = grid
        self.group_partitions = group_partitions

        exp_rdd = self.scan(partitions=input_partitions)
        results = self.lower_chain(
            exp_rdd, self.plan.expanded_chain("preprocess", "sources")
        ).collect()

        coadds = {patch: coadd_img for patch, (coadd_img, _s) in results}
        sources = {patch: srcs for patch, (_c, srcs) in results}
        return coadds, sources
