"""The ``harness optimize`` subcommand and the optimizer gate logic."""

import pytest

from repro.harness import __main__ as cli
from repro.harness.__main__ import _opt_failures, main
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


def test_ledger_optimize_runs_each_opt_cell_once(tmp_path, monkeypatch,
                                                 capsys):
    """``ledger --optimize`` gates on the rows its snapshot run
    returned, so without a cache to replay from each of the six cells
    still runs once."""
    from repro.harness.parallel import TRIAL_FNS

    optcell = TRIAL_FNS["optcell"]
    pipelines = []

    def counted(**kwargs):
        pipelines.append(kwargs["pipeline"])
        return optcell(**kwargs)

    monkeypatch.setitem(TRIAL_FNS, "optcell", counted)
    assert main(["ledger", "--optimize", "--quick", "--no-cache",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert pipelines == ["neuro"] * 3 + ["astro"] * 3


def test_every_optimizer_caller_prices_at_its_node_count(monkeypatch):
    """An optimized end-to-end trial and ``harness optimize --nodes``
    decide the rewrites at the cell's node count."""
    import repro.plan
    from repro.harness import experiments as E

    class Priced(Exception):
        pass

    seen = []

    def record(plan, kind, profile=None, n_nodes=16):
        seen.append(n_nodes)
        raise Priced

    monkeypatch.setattr(E, "optimize_for", record)
    monkeypatch.setattr(repro.plan, "optimize_for", record)
    visits = astro_visits(1, **QUICK_ASTRO)
    for call in (
        lambda: E._end_to_end("astro", "dask", visits, n_nodes=5,
                              optimize=True),
        lambda: main(["optimize", "--quick", "--nodes", "7"]),
    ):
        with pytest.raises(Priced):
            call()
    assert seen == [5, 7]


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
