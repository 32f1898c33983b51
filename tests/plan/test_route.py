"""Cost-based routing: estimator ordering, Table-1 refusals, fusion.

The estimator's job is *ordering*, not absolute seconds — so the tests
pin the orderings the quick-profile ledger measurements confirm (Myria
cheapest on both pipelines; Spark's UDF boundary beats Dask's dispatch
tax on neuro and loses on astro) and the hard constraints: SciDB and
TensorFlow partial lowerings are refusals carrying the paper's Table 1
reasons, never cost entries.
"""

import pytest

from repro.harness.runner import astro_visits, neuro_subjects
from repro.plan import astro_plan, choose_engine, neuro_plan
from repro.plan.ir import LogicalPlan, materialize, scan
from repro.plan.opt import EPSILON, fuse_pair, optimize_for
from repro.plan.route import (
    ROUTABLE_ENGINES,
    astro_profile,
    choose_engine as route_choose,
    estimate_plan_cost,
    neuro_profile,
    supports,
)

assert route_choose is choose_engine  # re-exported via repro.plan


@pytest.fixture(scope="module")
def quick_neuro_prof():
    return neuro_profile(neuro_subjects(2, scale=20, n_volumes=24))


@pytest.fixture(scope="module")
def quick_astro_prof():
    return astro_profile(astro_visits(2, scale=100, n_sensors=6))


# ----------------------------------------------------------------------
# Table-1 support constraints
# ----------------------------------------------------------------------

def test_partial_lowerings_refuse_with_table1_reasons():
    level, reason = supports("neuro", "scidb")
    assert level == "partial" and "Table 1 X" in reason
    level, reason = supports("neuro", "tensorflow")
    assert level == "partial" and "no end-to-end pipeline" in reason
    level, reason = supports("astro", "scidb")
    assert level == "partial" and "Table 1 NA" in reason
    level, reason = supports("astro", "tensorflow")
    assert level == "na" and "no TensorFlow lowering exists" in reason


def test_unknown_plan_names_default_to_full():
    # Fragments keep their pipeline name; synthetic plans route freely.
    assert supports("anything-else", "scidb") == ("full", "no constraint")


def test_refused_engines_never_priced(quick_neuro_prof):
    decision = choose_engine(neuro_plan(), quick_neuro_prof)
    priced = {e.engine for e in decision.estimates}
    assert priced == {"dask", "myria", "spark"}
    assert set(decision.refusals) == {"scidb", "tensorflow"}
    rows = decision.as_rows()
    refused = [r for r in rows if "refused" in r]
    assert {r["engine"] for r in refused} == {"scidb", "tensorflow"}
    assert sum(1 for r in rows if r.get("chosen")) == 1


def test_all_candidates_refused_raises():
    plan = LogicalPlan(
        name="neuro",
        ops=(
            scan("volumes", step="Ingest", format="nii"),
            materialize("out", "volumes", step="Ingest", blame="out"),
        ),
    ).validate()
    with pytest.raises(ValueError, match="no engine can run plan"):
        choose_engine(plan, candidates=("scidb", "tensorflow"))


# ----------------------------------------------------------------------
# Estimator orderings match the measured quick-profile ledger
# ----------------------------------------------------------------------

def test_neuro_ordering_myria_spark_dask(quick_neuro_prof):
    totals = {
        kind: estimate_plan_cost(neuro_plan(), kind,
                                 profile=quick_neuro_prof).total
        for kind in ("dask", "myria", "spark")
    }
    # Measured quick makespans: myria 201s < spark 380s < dask 410s.
    assert totals["myria"] < totals["spark"] < totals["dask"]


def test_astro_ordering_myria_dask_spark(quick_astro_prof):
    totals = {
        kind: estimate_plan_cost(astro_plan(), kind,
                                 profile=quick_astro_prof).total
        for kind in ("dask", "myria", "spark")
    }
    # Measured quick makespans: myria 343s < dask 405s < spark 524s.
    assert totals["myria"] < totals["dask"] < totals["spark"]


@pytest.mark.parametrize("prof_fixture,plan_fn", [
    ("quick_neuro_prof", neuro_plan),
    ("quick_astro_prof", astro_plan),
])
def test_router_matches_measured_cheapest(prof_fixture, plan_fn, request):
    prof = request.getfixturevalue(prof_fixture)
    decision = choose_engine(plan_fn(), prof)
    assert decision.engine == "myria"


def test_estimate_breakdown_terms_sum(quick_astro_prof):
    est = estimate_plan_cost(astro_plan(), "spark", profile=quick_astro_prof)
    assert est.total == pytest.approx(
        est.startup + est.ingest + est.compute + est.tax
    )
    assert est.startup > 0 and est.ingest > 0 and est.compute > 0
    row = est.as_row()
    assert row["engine"] == "spark" and row["total_s"] == est.total


def test_estimator_covers_every_routable_engine(quick_neuro_prof):
    for kind in ROUTABLE_ENGINES:
        est = estimate_plan_cost(neuro_plan(), kind,
                                 profile=quick_neuro_prof)
        assert est.total > 0


def test_deterministic_tie_break_by_engine_name():
    # With no profile all engines see the unit workload; whatever wins,
    # repeated calls agree (min keys on (total, engine)).
    first = choose_engine(neuro_plan())
    second = choose_engine(neuro_plan())
    assert first.engine == second.engine
    assert [e.as_row() for e in first.estimates] == \
        [e.as_row() for e in second.estimates]


# ----------------------------------------------------------------------
# Fusion profitability is per-engine
# ----------------------------------------------------------------------

def _fusion_saving(kind, profile=None):
    """Estimated seconds fusing ``preprocess`` into ``exposures`` saves."""
    naive = astro_plan()
    fused = fuse_pair(naive, "exposures", "preprocess")
    return (estimate_plan_cost(naive, kind, profile=profile).total
            - estimate_plan_cost(fused, kind, profile=profile).total)


def test_dask_guard_accepts_astro_fusion(quick_astro_prof):
    assert _fusion_saving("dask", quick_astro_prof) > EPSILON


@pytest.mark.parametrize("kind", ["spark", "myria"])
def test_other_guards_reject_astro_fusion(kind, quick_astro_prof):
    assert _fusion_saving(kind, quick_astro_prof) <= EPSILON


def test_guard_epsilon_blocks_float_noise():
    # Spark pipelines narrow ops into stages, so the fusion prices as
    # neutral up to float noise, which the epsilon keeps from firing.
    assert abs(_fusion_saving("spark")) <= EPSILON
    assert optimize_for(astro_plan(), "spark").firings == ()
