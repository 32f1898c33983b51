"""Plan fragments: ancestor closures, glue, and byte-stable lowering.

The fig11/fig12 micro-benchmarks lower fragments of the full pipeline
plans, so the contract is exact: a fragment keeps the parent plan's
name and op identities (provenance ids, MyriaL text, and memo keys must
not change), gains a synthetic materialize sink only when its tail is
interior, and glued fragments merge back into one chain under CSE.
"""

import pytest

from repro.plan import PlanError, astro_plan, neuro_plan
from repro.plan.fragments import (
    astro_coadd_fragment,
    astro_preprocess_fragment,
    fragment,
    glue,
    neuro_denoise_fragment,
    neuro_filter_fragment,
    neuro_mask_fragment,
    neuro_mean_fragment,
    neuro_scan_fragment,
)
from repro.plan.opt import Optimizer
from repro.plan.rules import EliminateCommonSubexpressions


def test_fragment_is_ancestor_closure_in_plan_order():
    frag = neuro_mean_fragment()
    assert [op.op_id for op in frag.ops] == \
        ["volumes", "b0", "mean_b0", "mean_b0.sink"]
    full = neuro_plan()
    for op in frag.ops[:-1]:
        assert op == full.op(op.op_id)  # identical, not copies-with-drift


def test_fragment_keeps_name_and_params():
    frag = neuro_scan_fragment(n_blocks=4)
    assert frag.name == "neuro"
    assert frag.param("n_blocks") == 4
    assert [op.op_id for op in frag.ops] == ["volumes", "volumes.sink"]


def test_interior_tail_gains_materialize_sink():
    frag = neuro_filter_fragment()
    sink = frag.op("b0.sink")
    assert sink.kind == "materialize"
    assert sink.parents == ("b0",)
    assert sink.step == frag.op("b0").step
    assert sink.blame == "b0"  # falls back to the op id


def test_materialize_tail_gets_no_sink():
    frag = neuro_mask_fragment()
    assert frag.ops[-1].op_id == "masks"
    assert not any(op.op_id.endswith(".sink") for op in frag.ops)


def test_fragment_follows_broadcast_uses():
    frag = neuro_denoise_fragment()
    ids = [op.op_id for op in frag.ops]
    # denoise uses the mask broadcast, so the whole mask chain rides in.
    assert "mask_bcast" in ids and "masks" in ids and "otsu" in ids
    assert ids[-1] == "denoise.sink"


def test_fragment_unknown_op_raises():
    with pytest.raises(PlanError, match="no op 'nope'"):
        fragment(neuro_plan(), "nope")


def test_fragment_outputs_opt_in():
    frag = fragment(neuro_plan(), "masks", outputs=("masks",))
    assert frag.outputs() == ("masks",)


def test_astro_fragments():
    coadd = astro_coadd_fragment()
    assert [op.op_id for op in coadd.ops] == \
        ["exposures", "preprocess", "patches", "stitch", "coadd",
         "coadd.sink"]
    pre = astro_preprocess_fragment()
    assert [op.op_id for op in pre.ops] == \
        ["exposures", "preprocess", "preprocess.sink"]


def test_fragment_provenance_matches_full_plan():
    frag = neuro_filter_fragment()
    full = neuro_plan()
    assert frag.provenance("b0") == full.provenance("b0")


# ----------------------------------------------------------------------
# Emitted MyriaL is byte-identical to the full plan's
# ----------------------------------------------------------------------

def test_fragment_lowered_myrial_byte_identical():
    from repro.engines.myria.lowering.neuro import (
        FILTER_QUERY,
        MEAN_QUERY,
        filter_query,
        mean_query,
    )

    assert filter_query(neuro_filter_fragment()).text == FILTER_QUERY
    assert mean_query(neuro_mean_fragment()).text == MEAN_QUERY


# ----------------------------------------------------------------------
# glue + CSE round trip
# ----------------------------------------------------------------------

def test_glue_renames_collisions_and_rewires():
    glued = glue(neuro_filter_fragment(), neuro_mean_fragment())
    ids = [op.op_id for op in glued.ops]
    assert ids == ["volumes", "b0", "b0.sink", "volumes.2", "b0.2",
                   "mean_b0", "mean_b0.sink"]
    assert glued.op("b0.2").parents == ("volumes.2",)
    assert glued.op("mean_b0").parents == ("b0.2",)


def test_glue_rejects_cross_pipeline():
    with pytest.raises(PlanError, match="must come from the same pipeline"):
        glue(neuro_scan_fragment(), astro_preprocess_fragment())


def test_glue_custom_rename():
    glued = glue(
        neuro_scan_fragment(), neuro_scan_fragment(),
        rename=lambda op_id, index: f"{op_id}~{index}",
    )
    assert "volumes~2" in {op.op_id for op in glued.ops}


def test_cse_merges_glued_shared_prefix():
    glued = glue(neuro_filter_fragment(), neuro_mean_fragment())
    result = Optimizer([EliminateCommonSubexpressions()]).optimize(glued)
    merged = result.plan
    ids = [op.op_id for op in merged.ops]
    # The re-declared scan chain collapses back into one.
    assert "volumes.2" not in ids and "b0.2" not in ids
    assert merged.op("mean_b0").parents == ("b0",)
    assert merged.op("b0.sink").parents == ("b0",)
    sites = [f.site for f in result.firings]
    assert ("volumes", "volumes.2") in sites
    assert ("b0", "b0.2") in sites


def test_fragments_route_like_any_plan():
    from repro.plan import choose_engine

    # Fragments keep the pipeline name, so Table-1 refusals apply; the
    # scan fragment still routes (every full engine can ingest).
    decision = choose_engine(neuro_scan_fragment())
    assert decision.engine in ("dask", "myria", "spark")
    assert set(decision.refusals) == {"scidb", "tensorflow"}
