"""Unit tests for narrow-map fusion and the greedy optimizer loop.

``fuse_pair`` and the site scan get synthetic plans; a golden firing
trace pins exactly what the optimizer does to the two real plans on
every engine at the quick ``opt`` profiles: the astro plan on Dask and
on TensorFlow gains two narrow-map fusions, every other (pipeline,
engine) cell is left byte-identical to naive.
"""

import pytest

from repro.cluster.costs import DEFAULT_COST_MODEL
from repro.harness.figures import FIGURES
from repro.harness.runner import astro_visits, neuro_subjects
from repro.plan import astro_plan, neuro_plan
from repro.plan.ir import (
    FUSED_SEP,
    LogicalPlan,
    flat_map,
    fused_members,
    is_fused,
    map_,
    materialize,
    scan,
)
from repro.plan.opt import fuse_pair, fusion_sites, optimize_for
from repro.plan.route import ROUTABLE_ENGINES


def _plan(*ops):
    return LogicalPlan(name="test", ops=tuple(ops)).validate()


def _chain_plan():
    return _plan(
        scan("src", step="S", format="npy"),
        map_("a", "src", step="S", kernel="mean_volume"),
        map_("b", "a", step="S", kernel="stack_volumes"),
        materialize("out", "b", step="S", blame="out"),
    )


# ----------------------------------------------------------------------
# Narrow-map fusion
# ----------------------------------------------------------------------

def test_fuse_pair_builds_expandable_carrier():
    plan = _chain_plan()
    fused = fuse_pair(plan, "a", "b")
    carrier = fused.op(FUSED_SEP.join(("a", "b")))
    assert is_fused(carrier)
    assert carrier.parents == ("src",)
    members = fused_members(carrier)
    assert [m.op_id for m in members] == ["a", "b"]
    # Members re-linearize: first inherits the carrier's parents, the
    # second chains on the first.
    assert members[0].parents == ("src",)
    assert members[1].parents == ("a",)
    assert members[1].param("kernel") == "stack_volumes"
    assert fused.op("out").parents == (carrier.op_id,)


def test_fuse_pair_scan_carrier_keeps_format():
    plan = _plan(
        scan("src", step="S", format="npy"),
        map_("a", "src", step="S"),
        materialize("out", "a", step="S", blame="out"),
    )
    fused = fuse_pair(plan, "src", "a")
    carrier = fused.op("src" + FUSED_SEP + "a")
    assert carrier.kind == "scan"
    assert carrier.param("format") == "npy"


def test_fusion_sites_skip_shared_parents():
    plan = _plan(
        scan("src", step="S", format="npy"),
        map_("a", "src", step="S"),
        map_("b", "src", step="S"),
        materialize("out_a", "a", step="S", blame="a"),
        materialize("out_b", "b", step="S", blame="b"),
    )
    # 'src' has two consumers; fusing either child would duplicate it.
    assert list(fusion_sites(plan)) == []


# ----------------------------------------------------------------------
# The greedy loop
# ----------------------------------------------------------------------

def test_optimizer_reaches_fixpoint_and_is_idempotent():
    first = optimize_for(_chain_plan(), "dask")
    assert [f.site for f in first.firings] == [("src", "a"), ("src+a", "b")]
    again = optimize_for(first.plan, "dask")
    assert again.firings == ()
    assert again.plan.fingerprints() == first.plan.fingerprints()


def test_firing_rows_are_serializable():
    result = optimize_for(_chain_plan(), "dask")
    row = result.firings[0].as_row()
    assert row == {
        "site": ["src", "a"],
        "detail": "fuse 'a' into 'src' (one physical task per input)",
        "saving_s": result.firings[0].saving,
    }
    assert row["saving_s"] > 0


def test_fusion_is_priced_at_the_given_node_count():
    # Fusing the fan-out 'b' into 'a' duplicates a's work per block: at
    # one node that costs more than the task it saves (-0.006 s), from
    # two nodes up it pays (+0.004 s).  The tap keeps 'src' unfusable.
    plan = _plan(
        scan("src", step="S", format="npy"),
        materialize("tap", "src", step="S", blame="tap"),
        map_("a", "src", step="S"),
        flat_map("b", "a", step="S", n_blocks=2),
        materialize("out", "b", step="S", blame="out"),
    )
    prof = {"n_chains": 1, "items_per_chain": 24,
            "op_seconds": {"a": 10 * DEFAULT_COST_MODEL.dask_task_overhead}}
    assert optimize_for(plan, "dask", prof, n_nodes=1).firings == ()
    fired = optimize_for(plan, "dask", prof, n_nodes=16).firings
    assert [f.site for f in fired] == [("a", "b")]
    assert fired[0].saving == pytest.approx(0.004)


def test_fingerprint_distinguishes_naive_and_unchanged():
    plan = neuro_plan()
    unchanged = optimize_for(plan, "spark")
    assert unchanged.firings == ()
    # Stable token, distinct per engine (the engine joins the hash).
    assert unchanged.fingerprint() == optimize_for(plan, "spark").fingerprint()
    assert unchanged.fingerprint() != optimize_for(plan, "myria").fingerprint()


# ----------------------------------------------------------------------
# Golden firing trace over the real plans, quick 'opt' profiles
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def quick_profiles():
    from repro.plan.route import astro_profile, neuro_profile

    sizes = FIGURES["opt"].sizes(True)
    return {
        "neuro": neuro_profile(neuro_subjects(
            sizes["n_subjects"], **sizes["neuro_profile"])),
        "astro": astro_profile(astro_visits(
            sizes["n_visits"], **sizes["astro_profile"])),
    }


def _assert_astro_fusions(kind, saving, profile):
    result = optimize_for(astro_plan(), kind, profile=profile)
    assert [f.site for f in result.firings] == [
        ("exposures", "preprocess"), ("exposures+preprocess", "patches"),
    ]
    assert [f.detail for f in result.firings] == [
        "fuse 'preprocess' into 'exposures' (one physical task per input)",
        "fuse 'patches' into 'exposures+preprocess' "
        "(one physical task per input)",
    ]
    assert [f.saving for f in result.firings] == [pytest.approx(saving)] * 2
    carrier = result.plan.op("exposures+preprocess+patches")
    assert [m.op_id for m in fused_members(carrier)] == \
        ["exposures", "preprocess", "patches"]


def test_golden_trace_astro_dask(quick_profiles):
    _assert_astro_fusions("dask", 0.012, quick_profiles["astro"])


def test_golden_trace_astro_tensorflow(quick_profiles):
    _assert_astro_fusions("tensorflow", 0.05, quick_profiles["astro"])


@pytest.mark.parametrize("kind", ["spark", "myria", "scidb"])
def test_golden_trace_astro_other_engines_unchanged(kind, quick_profiles):
    result = optimize_for(astro_plan(), kind, profile=quick_profiles["astro"])
    assert result.firings == ()
    assert result.plan.fingerprints() == astro_plan().fingerprints()


@pytest.mark.parametrize("kind", ROUTABLE_ENGINES)
def test_golden_trace_neuro_unchanged_everywhere(kind, quick_profiles):
    result = optimize_for(neuro_plan(), kind, profile=quick_profiles["neuro"])
    assert result.firings == ()
    assert result.plan.fingerprints() == neuro_plan().fingerprints()
