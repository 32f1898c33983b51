"""The ``harness optimize`` subcommand and the optimizer gate logic."""

import pytest

from repro.harness import __main__ as cli
from repro.harness.__main__ import _opt_failures, main
from repro.harness.experiments import optimize_token
from repro.harness.figures import FIGURES, QUICK_ASTRO, QUICK_NEURO
from repro.harness.runner import astro_visits, neuro_subjects
from repro.plan import astro_plan, choose_engine, neuro_plan
from repro.plan import route as R


def test_opt_experiment_registered():
    assert "opt" in FIGURES


@pytest.mark.parametrize("name", FIGURES)
def test_optimize_and_route_reach_only_the_variant_figures(
        name, monkeypatch, capsys):
    """``--optimize --route auto`` runs fig10c/fig10d as their variant;
    every other id runs unchanged, with a note unless it is ``opt``."""
    calls = []
    monkeypatch.setattr(
        cli, "run_figure",
        lambda fig, quick, **variant: calls.append((fig, quick, variant)),
    )
    assert main([name, "--quick", "--optimize", "--route", "auto"]) == 0
    err = capsys.readouterr().err
    if name in ("fig10c", "fig10d"):
        assert calls == [(name, True, {"optimize": True, "route": "auto"})]
    else:
        assert calls == [(name, True, {})]
    noted = f"note: {name} has no optimizer/router variant" in err
    assert noted == (name not in ("fig10c", "fig10d", "opt"))


def test_optimize_explain_quick(capsys):
    assert main(["optimize", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Rule firing trace" in out
    # The one accepted rewrite chain: astro on Dask.
    assert "fuse 'preprocess' into 'exposures'" in out
    assert "(no rewrites accepted" in out
    assert "Router decisions" in out
    assert "neuro: routed to myria" in out
    assert "astro: routed to myria" in out


def test_optimize_single_engine_trace(capsys):
    assert main(["optimize", "--quick", "--engines", "spark"]) == 0
    out = capsys.readouterr().out
    assert "neuro/spark" in out
    assert "dask" not in out.split("Router decisions")[0]


def test_unsupported_route_value_rejected():
    with pytest.raises(SystemExit):
        main(["fig10c", "--quick", "--route", "spark"])


def test_opt_failures_gate():
    good = {"pipeline": "neuro", "engine": "dask",
            "naive_s": 10.0, "optimized_s": 9.5, "identical": True}
    slow = dict(good, engine="spark", optimized_s=10.5)
    diff = dict(good, engine="myria", identical=False)
    assert _opt_failures([good]) == []
    failures = _opt_failures([good, slow, diff])
    assert len(failures) == 2
    assert any("neuro/spark" in f and "exceeds" in f for f in failures)
    assert any("neuro/myria" in f and "byte-identical" in f for f in failures)


def test_opt_failures_tolerate_float_noise():
    row = {"pipeline": "astro", "engine": "dask",
           "naive_s": 10.0, "optimized_s": 10.0 + 1e-9, "identical": True}
    assert _opt_failures([row]) == []


def test_optimize_token_is_truthy_and_engine_specific():
    tokens = {
        kind: optimize_token("neuro", kind, 1, QUICK_NEURO)
        for kind in ("dask", "spark")
    }
    assert all(tokens.values())  # truthy: doubles as the optimize flag
    assert tokens["dask"] != tokens["spark"]
    # Content-addressed: same inputs, same token.
    assert optimize_token("neuro", "dask", 1, QUICK_NEURO) == tokens["dask"]


def test_optimize_token_astro_reflects_firings():
    token = optimize_token("astro", "dask", 1, QUICK_ASTRO)
    assert token != optimize_token("astro", "spark", 1, QUICK_ASTRO)


def test_routing_table_rows():
    """The router's table for both pipelines, as ``harness optimize``
    prints it."""
    rows = []
    for pipeline, plan, profile in (
        ("neuro", neuro_plan(),
         R.neuro_profile(neuro_subjects(1, **QUICK_NEURO))),
        ("astro", astro_plan(),
         R.astro_profile(astro_visits(1, **QUICK_ASTRO))),
    ):
        rows += [dict({"pipeline": pipeline}, **row)
                 for row in choose_engine(plan, profile).as_rows()]
    pipelines = {row["pipeline"] for row in rows}
    assert pipelines == {"neuro", "astro"}
    chosen = [row for row in rows if row.get("chosen")]
    assert len(chosen) == 2
    refused = [row for row in rows if "refused" in row]
    assert {row["engine"] for row in refused} == {"scidb", "tensorflow"}
