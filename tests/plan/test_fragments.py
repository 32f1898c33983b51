"""Plan fragments: ancestor closures and byte-stable lowering.

The fig11/fig12 micro-benchmarks lower fragments of the full pipeline
plans, so the contract is exact: a fragment keeps the parent plan's
name and op identities (provenance ids, MyriaL text, and memo keys must
not change), and gains a synthetic materialize sink only when its tail
is interior.
"""

import pytest

from repro.plan import PlanError, astro_plan, neuro_plan
from repro.plan.fragments import (
    astro_coadd_fragment,
    fragment,
    neuro_denoise_fragment,
    neuro_filter_fragment,
    neuro_mean_fragment,
    neuro_scan_fragment,
)


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
    frag = fragment(neuro_plan(), "masks")
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


def test_astro_fragments():
    coadd = astro_coadd_fragment()
    assert [op.op_id for op in coadd.ops] == \
        ["exposures", "preprocess", "patches", "stitch", "coadd",
         "coadd.sink"]
    pre = fragment(astro_plan(), "preprocess")
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


def test_fragments_route_like_any_plan():
    from repro.plan import choose_engine

    # Fragments keep the pipeline name, so Table-1 refusals apply; the
    # scan fragment still routes (every full engine can ingest).
    decision = choose_engine(neuro_scan_fragment())
    assert decision.engine in ("dask", "myria", "spark")
    assert set(decision.refusals) == {"scidb", "tensorflow"}
