"""Lines-of-code accounting for Table 1.

The paper's first evaluation dimension is ease of use, "which we
measure using lines of code (LoC) needed to implement the use cases"
(Section 4).  This module counts the source lines of this repository's
engine-specific pipeline implementations, broken down into the same
rows as Table 1, and reports the paper's own numbers alongside.

Counting rules: executable source lines of the functions / query
strings that implement each step (blank lines, pure-comment lines and
decorators excluded).  A lowering is plumbing: it calls the step
bodies of ``pipelines/*/reference.py``, and an engine's "Re-used
Reference" cell counts the reference functions its lowering calls
(:func:`reused_reference`), in both use cases.  Absolute values differ
from the paper's (different codebase), but the *pattern* is the
comparison target: near-total reuse on Spark/Myria/Dask, full rewrites
on SciDB/TensorFlow, NA/impossible cells where the paper marks them.

Since the pipelines were unified behind the logical dataflow IR
(``repro.plan``), the engine-specific code lives in each engine's
``lowering`` package and is counted from there; the plan definitions
themselves are engine-neutral and appear once, as the "Shared Logical
Plan" row (no paper counterpart -- the paper wrote each pipeline five
times instead).
"""

import inspect

#: Paper Table 1 values, for side-by-side reporting.  ``None`` = NA,
#: ``"X"`` = not possible to implement.
PAPER_TABLE1 = {
    "neuro": {
        "Re-used Reference": {"Dask": 30, "SciDB": 3, "Spark": 32, "Myria": 35, "TensorFlow": 0},
        "Data Ingest": {"Dask": 33, "SciDB": 60, "Spark": 8, "Myria": 5, "TensorFlow": 15},
        "Segmentation": {"Dask": 25, "SciDB": 40, "Spark": 34, "Myria": 10, "TensorFlow": 121},
        "Denoising": {"Dask": 19, "SciDB": 52, "Spark": 1, "Myria": 3, "TensorFlow": 128},
        "Model Fitting": {"Dask": 11, "SciDB": None, "Spark": 39, "Myria": 15, "TensorFlow": None},
    },
    "astro": {
        "Re-used Reference": {"Dask": "X", "SciDB": None, "Spark": 212, "Myria": 225, "TensorFlow": None},
        "Data Ingest": {"Dask": "X", "SciDB": 85, "Spark": 12, "Myria": 5, "TensorFlow": None},
        "Pre-processing": {"Dask": "X", "SciDB": "X", "Spark": 1, "Myria": 4, "TensorFlow": None},
        "Patch Creation": {"Dask": "X", "SciDB": "X", "Spark": 4, "Myria": 9, "TensorFlow": None},
        "Co-addition": {"Dask": "X", "SciDB": 180, "Spark": 2, "Myria": 5, "TensorFlow": None},
        "Source Detection": {"Dask": "X", "SciDB": None, "Spark": 7, "Myria": 2, "TensorFlow": None},
    },
}


def count_source_lines(obj):
    """Executable source lines of a function, class, or literal string."""
    if obj is None:
        return 0
    if isinstance(obj, str):
        lines = obj.splitlines()
    else:
        lines = inspect.getsource(obj).splitlines()
    count = 0
    in_docstring = None  # holds the active quote style inside a docstring
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if in_docstring is not None:
            if in_docstring in stripped:
                in_docstring = None
            continue
        if stripped.startswith(('"""', "'''")):
            quote = stripped[:3]
            body = stripped[3:]
            if quote not in body:
                in_docstring = quote
            continue
        if stripped.startswith(("#", "@")):  # comments and decorators
            continue
        count += 1
    return count


def _sum(items):
    return sum(count_source_lines(i) for i in items)


def _nested(fn, *names):
    """Closures defined inside ``fn``, by name (countable like any
    function: a step kernel is often a closure of its factory)."""
    found = {
        const.co_name: const
        for const in fn.__code__.co_consts if inspect.iscode(const)
    }
    return [found[name] for name in names]


def _myrial(text, *relations):
    """The statements of a MyriaL query that define ``relations``."""
    statements = [part.strip() for part in text.split(";")]
    return "\n".join(
        next(s for s in statements if s.startswith(f"{name} ="))
        for name in relations
    )


def reused_reference(use_case):
    """``{system: [functions]}``: the ``use_case`` reference functions
    each lowering's step kernels call by name -- not what those call in
    turn, nor driver-side helpers (neuro's ``reference_masks`` /
    ``compute_mask``, astro's patch grid and pixel scale, SciDB's
    pre-processing of its astro mosaic before ingest).  A system absent
    here calls none: TensorFlow's neuro rewrite, and SciDB and
    TensorFlow in astronomy."""
    if use_case == "astro":
        from repro.pipelines.astro import reference as ref

        steps = [ref.preprocess_exposure, ref.patch_pieces,
                 ref.stitch_pieces, ref.coadd_patch, ref.detect]
        return {"Dask": steps, "Spark": steps, "Myria": steps}
    from repro.pipelines.neuro import reference as ref

    fit = [ref.stack_images, ref.fit_block]
    return {
        "Dask": [ref.mean_volume, ref.mask_of_mean, ref.denoise_volume] + fit,
        "SciDB": [ref.mask_of_mean, ref.denoise_volumes],
        "Spark": [ref.mask_of_mean, ref.denoise_volume] + fit,
        "Myria": [ref.mean_volume, ref.mask_of_mean, ref.denoise_volume] + fit,
    }


def measured_table1():
    """Count this repository's implementations into Table 1 cells.

    Every cell points at the code that implements the step on that
    engine: the lowered class's step methods and ``_udf_*`` kernel
    factories, the closures registered as Myria UDFs, and the MyriaL
    statements the lowering emits.  Returns
    ``{use_case: {row: {system: count-or-NA-or-X}}}``.
    """
    from repro.engines.dask.lowering import astro as a_dask
    from repro.engines.dask.lowering import neuro as n_dask
    from repro.engines.myria.lowering import astro as a_myria
    from repro.engines.myria.lowering import neuro as n_myria
    from repro.engines.scidb.lowering import astro as a_scidb
    from repro.engines.scidb.lowering import neuro as n_scidb
    from repro.engines.scidb.query import SciDBConnection
    from repro.engines.spark.lowering import astro as a_spark
    from repro.engines.spark.lowering import neuro as n_spark
    from repro.engines.spark.lowering.walker import ChainWalker
    from repro.engines.tensorflow.lowering import neuro as n_tf

    dask, spark, myria = (
        n_dask.LoweredNeuro, n_spark.LoweredNeuro, n_myria.LoweredNeuro
    )
    scidb, tf = n_scidb.LoweredNeuro, n_tf.LoweredNeuro
    reused = reused_reference("neuro")
    neuro = {
        "Re-used Reference": {
            system: _sum(reused.get(system, ()))
            for system in PAPER_TABLE1["neuro"]["Re-used Reference"]
        },
        "Data Ingest": {
            "Dask": _sum([dask.fetch_subject, dask.download_all]),
            "SciDB": _sum([scidb.ingest, scidb._load, n_scidb.subject_dims]),
            "Spark": _sum([ChainWalker.scan]),
            "Myria": _sum([n_myria.make_loader, myria.ingest]),
            "TensorFlow": _sum([n_tf.make_steps, tf.ingest_step]),
        },
        "Segmentation": {
            "Dask": _sum([dask.mask_graph]),
            "SciDB": _sum([scidb.filter_step, scidb.mean_step,
                           scidb.segmentation, n_scidb._nominal_b0_mask]),
            "Spark": _sum([spark._udf_b0, spark._udf_mean_b0,
                           spark._udf_otsu, spark.segmentation]),
            "Myria": _sum([n_myria.MASK_QUERY, myria.compute_masks]
                          + _nested(myria.register_udfs, "mean_otsu_uda")),
            "TensorFlow": _sum([tf.filter_step, tf.mean_step, tf.mask_step]),
        },
        "Denoising": {
            "Dask": _sum([dask.denoise_graph]),
            "SciDB": _sum([scidb.denoise_step]),
            "Spark": _sum([spark._udf_denoise, spark._broadcast_masks]),
            "Myria": _sum(
                [_myrial(n_myria.PIPELINE_QUERY, "T2", "Joined", "Denoised")]
                + _nested(myria.register_udfs, "denoise")),
            "TensorFlow": _sum([tf.denoise_step, n_tf._gaussian_kernel_3d]),
        },
        "Model Fitting": {
            "Dask": _sum([dask.fit_graph]),
            "SciDB": None,
            "Spark": _sum([spark._udf_repart, spark._udf_regroup,
                           spark._udf_fitmodel, spark.denoise_and_fit]),
            "Myria": _sum(
                [_myrial(n_myria.PIPELINE_QUERY, "Blocks", "Fitted")]
                + _nested(myria.register_udfs, "repart", "fit_model")),
            "TensorFlow": None,
        },
    }

    dask, spark, myria = (
        a_dask.LoweredAstro, a_spark.LoweredAstro, a_myria.LoweredAstro
    )
    scidb = a_scidb.LoweredAstro
    reused = reused_reference("astro")
    astro = {
        "Re-used Reference": {
            system: _sum(reused[system]) if system in reused else None
            for system in PAPER_TABLE1["astro"]["Re-used Reference"]
        },
        "Data Ingest": {
            "Dask": _sum(_nested(dask.run, "fetch", "fetch_cost")),
            "SciDB": _sum([a_scidb.sky_mosaic, scidb.ingest]),
            "Spark": _sum([ChainWalker.scan]),
            "Myria": _sum([a_myria._loader, myria.ingest]),
            "TensorFlow": None,
        },
        "Pre-processing": {
            # One entry of run()'s kernel table: the reference function
            # is the delayed kernel as it stands.
            "Dask": 1,
            "SciDB": "X",
            "Spark": _sum([spark._udf_preprocess]),
            "Myria": _sum([_myrial(a_myria.PIPELINE_QUERY, "Calib")]),
            "TensorFlow": None,
        },
        "Patch Creation": {
            "Dask": _sum(_nested(dask.run, "pieces_for", "stitch",
                                 "stitch_cost")),
            "SciDB": "X",
            "Spark": _sum([spark._udf_patches, spark._udf_stitch]),
            "Myria": _sum(
                [_myrial(a_myria.PIPELINE_QUERY, "Pieces", "PatchExp")]
                + _nested(myria.register_udfs, "patch_map", "stitch_uda")),
            "TensorFlow": None,
        },
        "Co-addition": {
            "Dask": _sum(_nested(dask.run, "coadd", "coadd_cost")),
            "SciDB": _sum([scidb.coadd_step, SciDBConnection.coadd_aql]),
            "Spark": _sum([spark._udf_coadd]),
            "Myria": _sum(
                [_myrial(a_myria.PIPELINE_QUERY, "Coadds")]
                + _nested(myria.register_udfs, "coadd_uda")),
            "TensorFlow": None,
        },
        "Source Detection": {
            "Dask": _sum(_nested(dask.run, "detect")),
            "SciDB": None,
            "Spark": _sum([spark._udf_detect]),
            "Myria": _sum([_myrial(a_myria.PIPELINE_QUERY, "Sources")]),
            "TensorFlow": None,
        },
    }
    return {"neuro": neuro, "astro": astro}


def shared_plan_loc(use_case):
    """LoC of the engine-neutral logical plan for ``use_case``.

    These lines are written once and lowered onto all five engines, so
    they belong to no single Table 1 column.
    """
    from repro.plan import astro as plan_astro
    from repro.plan import neuro as plan_neuro

    builders = {"neuro": plan_neuro.neuro_plan, "astro": plan_astro.astro_plan}
    return count_source_lines(builders[use_case])


def table1_rows(use_case):
    """Long-form rows combining measured and paper values."""
    measured = measured_table1()[use_case]
    paper = PAPER_TABLE1[use_case]
    rows = []
    for step, by_system in measured.items():
        for system, value in by_system.items():
            rows.append(
                {
                    "step": step,
                    "system": system,
                    "measured_loc": _render(value),
                    "paper_loc": _render(paper.get(step, {}).get(system)),
                }
            )
    rows.append(
        {
            "step": "Shared Logical Plan",
            "system": "(all engines)",
            "measured_loc": _render(shared_plan_loc(use_case)),
            "paper_loc": _render(None),
        }
    )
    return rows


def _render(value):
    if value is None:
        return "NA"
    return str(value)
