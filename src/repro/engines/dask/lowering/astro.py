"""The astro plan lowered to miniDask.

Paper caveat (Section 4.4): "We implemented the astronomy use case with
the same approach.  Interestingly, the implementation freezes once
deployed on a cluster and we found it surprisingly difficult to track
down the cause of the problem.  Hence, we do not report performance
numbers."

This reproduction implements the pipeline fully and it *runs* on the
simulated cluster (our miniDask does not reproduce the original
deadlock); the benchmark harness nevertheless excludes Dask from the
astronomy charts to match the paper's reporting -- see EXPERIMENTS.md.

Lowering contract notes: the plan's two shuffling ``group_by`` ops
become pure graph wiring — the (patch, visit) -> contributing-exposure
map is known from geometry, so ``stitch`` and ``coadd`` nodes are built
without any barrier or shuffle.
"""

from repro.engines.base import LoweredPlan
from repro.pipelines import common
from repro.pipelines.astro import reference as ref
from repro.pipelines.astro.staging import exposure_key
from repro.plan.ir import fused_members, provenance_id


def _pid(op_id):
    """Provenance id of an astro-plan op."""
    return provenance_id("astro", op_id)


def _compose(entries):
    """Compose fused-carrier member kernels into one delayed function.

    ``entries`` is a list of ``(fn, cost_fn)`` member pairs.  A single
    member passes through untouched (the naive plan's graph must stay
    byte-identical).  For a real fusion the composed function runs the
    members back to back, accumulating each member's simulated cost on
    its *own* inputs into a cell; the composed cost function reads the
    cell (miniDask evaluates ``cost`` after ``fn``, same idiom as the
    Spark scheduler's fused narrow stages).
    """
    if len(entries) == 1:
        return entries[0]
    cell = {"cost": 0.0}

    def composed(*args):
        cell["cost"] = 0.0
        value = None
        for index, (fn, cost) in enumerate(entries):
            call_args = args if index == 0 else (value,)
            if cost is not None:
                cell["cost"] += cost(*call_args)
            value = fn(*call_args)
        return value

    def composed_cost(*args):
        return cell["cost"]

    composed.__name__ = "+".join(
        getattr(fn, "__name__", "fn") for fn, _ in entries
    )
    return composed, composed_cost


class LoweredAstro(LoweredPlan):
    """Executable produced by ``lower(astro_plan(), client)``.

    No step protocol: the paper reports no Dask astronomy numbers, so
    no step figure measures this lowering.
    """

    def __init__(self, plan, client):
        super().__init__(plan, client)
        # member_param resolves through fused carriers (the optimizer
        # may have folded the scan into one).
        self.bucket = plan.member_param("exposures", "bucket")

    def run(self, visits, grid=None):
        """End-to-end astronomy pipeline; returns ``(coadds, sources)``."""
        client = self.ctx
        plan = self.plan
        bucket = self.bucket
        cm = client.cost_model
        exposures = [e for v in visits for e in v.exposures]
        if grid is None:
            grid = ref.default_patch_grid(exposures[0].shape)
        pixel_scale = ref.nominal_pixel_scale(exposures[0].shape, exposures[0].bundle)
        store = client.cluster.s3
        nodes = client.cluster.node_order

        def fetch(visit_id, sensor_id):
            return store.get(bucket, exposure_key(visit_id, sensor_id))

        def fetch_cost(visit_id, sensor_id):
            nbytes = store.size_of(bucket, exposure_key(visit_id, sensor_id))
            return client.cluster.network.s3_download_time(nbytes, n_objects=1)

        def pieces_for(exposure):
            return dict(ref.patch_pieces(exposure, grid, pixel_scale))

        # The scan -> patches prefix is where the optimizer may have fused
        # narrow ops into carriers (one delayed node per exposure instead of
        # one per member).  Walk the prefix carrier by carrier; on the naive
        # plan every carrier has one member and this builds exactly the
        # historical graph.
        kernels = {
            "exposures": (fetch, fetch_cost),
            "preprocess": (ref.preprocess_exposure, common.preprocess_cost(cm)),
            "patches": (pieces_for, common.patch_map_cost(cm)),
        }

        current = {}
        for carrier in plan.chain("exposures", "patches"):
            members = fused_members(carrier)
            entries = [kernels[m.op_id] for m in members]
            pid = _pid(carrier.op_id)
            if members[0].op_id == "exposures":
                for index, exposure in enumerate(exposures):
                    workers = nodes[index % len(nodes)]
                    fn, cost = _compose(entries)
                    current[(exposure.visit_id, exposure.sensor_id)] = client.delayed(
                        fn, cost=cost, workers=workers, op=pid
                    )(exposure.visit_id, exposure.sensor_id)
            else:
                staged = {}
                for key, d in current.items():
                    fn, cost = _compose(entries)
                    staged[key] = client.delayed(fn, cost=cost, op=pid)(d)
                current = staged
        pieces = current

        # The (patch, visit) -> contributing exposures map is known from
        # geometry, so the stitch graph is built without a barrier.
        contributors = {}
        for exposure in exposures:
            for patch_id in grid.overlapping_patches(exposure.sky_box):
                contributors.setdefault((patch_id, exposure.visit_id), []).append(
                    (exposure.visit_id, exposure.sensor_id)
                )

        def stitch(patch_visit, *piece_maps):
            group = [m[patch_visit] for m in piece_maps]
            return ref.stitch_pieces(group)

        def stitch_cost(patch_visit, *piece_maps):
            return common.stitch_cost(cm)([m[patch_visit] for m in piece_maps])

        stitched = {
            patch_visit: client.delayed(stitch, cost=stitch_cost, op=_pid("stitch"))(
                patch_visit, *[pieces[k] for k in keys]
            )
            for patch_visit, keys in contributors.items()
        }

        by_patch = {}
        for (patch_id, visit_id) in sorted(stitched, key=lambda k: (k[0], k[1])):
            by_patch.setdefault(patch_id, []).append(stitched[(patch_id, visit_id)])

        def coadd(*stack):
            return ref.coadd_patch(list(stack))

        def coadd_cost(*stack):
            return common.coadd_cost(cm, ref.COADD_ITERATIONS)(list(stack))

        coadd_delayed = {
            patch: client.delayed(coadd, cost=coadd_cost, op=_pid("coadd"))(*stack)
            for patch, stack in by_patch.items()
        }

        def detect(coadd_img):
            return coadd_img, ref.detect(coadd_img)

        result_delayed = {
            patch: client.delayed(
                detect, cost=lambda c: common.detect_cost(cm)(c),
                op=_pid("sources"),
            )(d)
            for patch, d in coadd_delayed.items()
        }

        patches = sorted(result_delayed)
        values = client.compute([result_delayed[p] for p in patches])
        coadds = {p: v[0] for p, v in zip(patches, values)}
        sources = {p: v[1] for p, v in zip(patches, values)}
        return coadds, sources
