"""The astro plan lowered to miniMyria (Section 4.3).

MyriaL drives the plan; reference step functions run as Python
UDFs/UDAs.  Patch ids travel as key columns (Myria supports arbitrary
hashable keys through its shuffle), visits as longs, image payloads as
blobs.

Lowering contract notes: the MyriaL text is emitted from the logical
plan by the ``*_query`` functions, each statement next to the plan ops
it realises.  The ``stitch`` and ``coadd`` group_bys
lower to Myria UDAs fed by the engine's hash shuffle; multi-query
execution (Figure 15) additionally restricts the plan to patch-column
bands with the ``x0`` pushdown — a physical rewrite the plan permits
because patches are independent.
"""

from repro.engines.base import LoweredPlan, udf
from repro.engines.myria.connection import MyriaQuery, PlanQuery
from repro.pipelines import common
from repro.pipelines.astro import reference as ref
from repro.pipelines.astro.staging import exposure_key
from repro.plan.astro import astro_plan
from repro.plan.ir import PSEUDO_OVERHEAD

EXPOSURES_COLUMNS = ("expId", "visit", "sensor", "x0", "img")


def _patch_statements(plan, exposures="E", pieces="Pieces"):
    """``exposures -> preprocess -> patches -> stitch``, calibrating
    relation alias ``exposures`` and stitching alias ``pieces``."""
    for op_id, kind in (("preprocess", "map"), ("patches", "flat_map"),
                        ("stitch", "group_by")):
        if plan.member(op_id).kind != kind:
            raise NotImplementedError(f"myria lowering: missing {op_id}")
    e, p = exposures, pieces
    return (
        "E = SCAN(Exposures);",
        (("preprocess",),
         f"Calib = [FROM {e} EMIT PYUDF(Preproc, {e}.img) AS img, {e}.visit, {e}.expId];"),
        (("patches",),
         "Pieces = [FROM Calib EMIT",
         "          UNNEST(PYUDF(PatchMap, Calib.img)) AS (patchY, patchX, visitId, piece)];"),
        (("stitch",),
         f"PatchExp = [FROM {p} EMIT {p}.patchY, {p}.patchX, {p}.visitId,",
         f"            UDA(Stitch, {p}.piece) AS img];"),
    )


def _coadd_statement(plan, src):
    """The ``coadd`` group_by over relation alias ``src``."""
    if plan.member("coadd").kind != "group_by":
        raise NotImplementedError("myria lowering: missing coadd")
    return (
        ("coadd",),
        f"Coadds = [FROM {src} EMIT {src}.patchY, {src}.patchX,",
        f"          UDA(CoaddAgg, {src}.img, {src}.visitId) AS coadd];",
    )


def _sources_statement(plan):
    """``detect`` over the coadds, materialized as ``sources``."""
    for op_id, kind in (("detect", "map"), ("sources", "materialize")):
        if plan.member(op_id).kind != kind:
            raise NotImplementedError(f"myria lowering: missing {op_id}")
    return (
        ("detect", "sources"),
        "Sources = [FROM Coadds EMIT Coadds.patchY, Coadds.patchX,",
        "           PYUDF(Detect, Coadds.coadd) AS srcs];",
    )


def pipeline_query(plan):
    """Emit the full-sky MyriaL pipeline from the logical plan."""
    return PlanQuery(
        plan,
        *_patch_statements(plan),
        _coadd_statement(plan, "PatchExp"),
        _sources_statement(plan),
    )


def patch_query(plan):
    """Figure 12d's untimed input: patch exposures, stored."""
    return PlanQuery(
        plan, *_patch_statements(plan), "STORE(PatchExp, PatchExposures);"
    )


def coadd_query(plan):
    """Figure 12d's step: ``coadd`` over the stored patch exposures."""
    return PlanQuery(
        plan, "P = SCAN(PatchExposures);", _coadd_statement(plan, "P")
    )


PIPELINE_QUERY = pipeline_query(astro_plan()).text


def _loader(exposure):
    exp_id = exposure.visit_id * 1000 + exposure.sensor_id
    return (
        exp_id,
        exposure.visit_id,
        exposure.sensor_id,
        exposure.sky_box.x0,
        exposure,
    )


def band_query(plan, x_lo, x_hi, px_lo, px_hi):
    """The pipeline restricted to a band of patch columns.

    Used by multi-query execution (Figure 15): "the system must cut the
    data analysis into even smaller pieces" -- patches are independent,
    so the sky is processed one column band at a time.  The band
    predicate pushes down to the scalar ``x0`` column of the Exposures
    relation, so each sub-query only preprocesses exposures that can
    contribute to its band (boundary exposures are processed twice).
    """
    scan, calib, pieces, stitch = _patch_statements(plan, "InBand", "Band")
    return PlanQuery(
        plan,
        scan,
        (("exposures",),
         "InBand = [SELECT E.expId, E.visit, E.img FROM E",
         f"          WHERE E.x0 >= {px_lo} AND E.x0 < {px_hi}];"),
        calib,
        pieces,
        (("patches",),
         "Band = [SELECT Pieces.patchY, Pieces.patchX, Pieces.visitId, Pieces.piece",
         "        FROM Pieces",
         f"        WHERE Pieces.patchX >= {x_lo} AND Pieces.patchX < {x_hi}];"),
        stitch,
        _coadd_statement(plan, "PatchExp"),
        _sources_statement(plan),
    )


class LoweredAstro(LoweredPlan):
    """Executable produced by ``lower(astro_plan(), conn)``."""

    def __init__(self, plan, conn):
        super().__init__(plan, conn)
        self.conn = conn
        self.bucket = plan.member_param("exposures", "bucket")

    def ingest(self):
        """Ingest staged exposures into the ``Exposures`` relation."""
        return self.conn.ingest_s3(
            "Exposures", self.bucket, EXPOSURES_COLUMNS, _loader,
            partition_column="expId", op=self.plan.provenance("exposures"),
        )

    def register_s3(self):
        """End-to-end path: scan staged FITS exposures directly from S3."""
        return self.conn.register_s3_relation(
            "Exposures", self.bucket, EXPOSURES_COLUMNS, _loader
        )

    def register_udfs(self, visits, grid):
        """Register every Python UDF/UDA the queries call."""
        conn = self.conn
        cm = conn.cost_model
        first = visits[0].exposures[0]
        pixel_scale = ref.nominal_pixel_scale(first.shape, first.bundle)

        def patch_map(exposure):
            rows = []
            for (patch_id, visit_id), piece in ref.patch_pieces(
                exposure, grid, pixel_scale
            ):
                rows.append((patch_id[0], patch_id[1], visit_id, piece))
            return rows

        def stitch_uda(pieces):
            return ref.stitch_pieces(list(pieces))

        def coadd_uda(imgs, visit_ids):
            ordered = [img for _v, img in sorted(zip(visit_ids, imgs))]
            return ref.coadd_patch(ordered)

        def coadd_uda_cost(imgs, visit_ids):
            return common.coadd_cost(cm, ref.COADD_ITERATIONS)(list(imgs))

        conn.create_function(
            "Preproc", udf(ref.preprocess_exposure, cost=common.preprocess_cost(cm))
        )
        conn.create_function(
            "PatchMap", udf(patch_map, cost=common.patch_map_cost(cm))
        )
        conn.create_function(
            "Stitch", udf(stitch_uda, cost=lambda pieces: common.stitch_cost(cm)(list(pieces)))
        )
        conn.create_function("CoaddAgg", udf(coadd_uda, cost=coadd_uda_cost))
        conn.create_function("Detect", udf(ref.detect, cost=common.detect_cost(cm)))

    def run(self, visits, mode="pipelined", chunks=1, grid=None, source="s3"):
        """End-to-end astronomy pipeline; returns ``(coadds, sources)``.

        ``mode`` is ``"pipelined"`` or ``"materialized"``; pass
        ``mode="multiquery"`` with ``chunks=k`` to process the sky in
        ``k`` patch-column bands as separate (materialized) queries.
        ``source`` selects direct S3 scans (the paper's end-to-end path)
        or ingested PostgreSQL storage.
        """
        conn = self.conn
        bucket = self.bucket
        exposures = [e for v in visits for e in v.exposures]
        if grid is None:
            grid = ref.default_patch_grid(exposures[0].shape)

        if source == "s3":
            self.register_s3()
        elif source == "ingested":
            if not conn.server.catalog.get("Exposures"):
                self.ingest()
        else:
            raise ValueError(f"unknown source {source!r}")
        self.register_udfs(visits, grid)

        if mode == "multiquery":
            if chunks < 2:
                raise ValueError("multiquery mode requires chunks >= 2")
            xs = sorted(
                {
                    patch[1]
                    for e in exposures
                    for patch in grid.overlapping_patches(e.sky_box)
                }
            )
            bounds = [xs[0] + (xs[-1] + 1 - xs[0]) * i // chunks for i in range(chunks + 1)]
            width = exposures[0].shape[1]
            queries = []
            for i in range(chunks):
                if bounds[i] >= bounds[i + 1]:
                    continue
                # Pixel bounds for the exposure-level pushdown: an exposure
                # of width w contributes to band [lo, hi) patch columns iff
                # its x0 lies in [lo * pw - w, hi * pw).
                px_lo = max(0, bounds[i] * grid.patch_width - width)
                px_hi = bounds[i + 1] * grid.patch_width
                # The file list for this band (Myria consumes a csv list of
                # files, so only in-band exposures are even fetched).
                band_keys = [
                    exposure_key(e.visit_id, e.sensor_id)
                    for e in exposures
                    if px_lo <= e.sky_box.x0 < px_hi
                ]
                queries.append((
                    band_query(self.plan, bounds[i], bounds[i + 1], px_lo, px_hi),
                    band_keys,
                ))
            mode = "materialized"
        else:
            queries = [(pipeline_query(self.plan), None)]

        coadds = {}
        sources = {}
        # What no statement claims -- query submit, collect -- is the
        # coordinator's overhead.
        with conn.cluster.obs.provenance(PSEUDO_OVERHEAD):
            for emitted, band_keys in queries:
                if band_keys is not None:
                    conn.register_s3_relation(
                        "Exposures", bucket, EXPOSURES_COLUMNS, _loader,
                        keys=band_keys,
                    )
                query = emitted.submit(conn, mode=mode)
                for patch_y, patch_x, coadd_img in query.relation("Coadds").rows:
                    coadds[(patch_y, patch_x)] = coadd_img
                for patch_y, patch_x, srcs in query.relation("Sources").rows:
                    sources[(patch_y, patch_x)] = srcs
        return coadds, sources

    # -- step protocol -------------------------------------------------

    def _prepare_coadd(self, visits):
        self.ingest()
        first = visits[0].exposures[0]
        self.register_udfs(visits, ref.default_patch_grid(first.shape))
        patch_query(self.plan).submit(self.conn)

    def _step_coadd(self):
        # Bare text: ``run_op``'s scope owns the whole window.
        MyriaQuery.submit(self.conn, coadd_query(self.plan).text)
