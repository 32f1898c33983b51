"""The figure table: every entry binds to its trial and keeps its columns.

A typo in a ``full`` size would otherwise surface only minutes into a
full-profile run.  The claims of the figures whose quick and full sizes
are the same (Table 1, Figures 10a/10b) run here too, so every tier-1
run checks them; the rest run in ``benchmarks/test_claims.py``.
"""

import inspect

import pytest

from benchmarks.test_claims import CELLS, CLAIMS
from repro.harness.figures import FIGURES, Axis, grid, run_figure
from repro.harness.parallel import TRIAL_FNS


@pytest.mark.parametrize("name", FIGURES)
def test_sizes_bind_to_the_entry_point(name):
    """A figure's entry point is its trial: the axes and fixed
    arguments of both profiles bind to the trial's signature."""
    fig = FIGURES[name]
    if fig.base:
        assert fig.trial is None and fig.base in FIGURES
        assert not (fig.quick or fig.full or fig.fixed) and fig.post
        return
    signature = inspect.signature(TRIAL_FNS[fig.trial])
    for quick in (True, False):
        sizes = fig.sizes(quick)
        assert not set(sizes) & set(fig.fixed)
        signature.bind(**fig.fixed, **sizes)
    if fig.variants:
        # What --optimize and --route auto override.
        assert isinstance(fig.full["engine"], Axis)
        assert fig.fixed["optimize"] is False


def test_an_override_must_name_an_axis_or_argument():
    with pytest.raises(TypeError, match="subject_counts"):
        grid("fig12a", True, subject_counts=(1,))


#: Each figure's row columns, in order, at the quick profile (a derived
#: figure's and a ``post`` row's included; Table 1's per use case).
ROW_KEYS = {
    "table1": ("step", "system", "measured_loc", "paper_loc"),
    "fig10a": ("subjects", "input_gb", "largest_intermediate_gb"),
    "fig10b": ("visits", "input_gb", "largest_intermediate_gb"),
    "fig10c": ("engine", "subjects", "simulated_s"),
    "fig10d": ("engine", "visits", "simulated_s"),
    "fig10e": ("engine", "subjects", "normalized"),
    "fig10f": ("engine", "visits", "normalized"),
    "fig10g": ("engine", "nodes", "simulated_s"),
    "fig10h": ("engine", "nodes", "simulated_s"),
    "fig11": ("system", "subjects", "simulated_s"),
    "fig12a": ("system", "simulated_s"),
    "fig12b": ("system", "simulated_s"),
    "fig12c": ("system", "simulated_s"),
    "fig12d": ("system", "simulated_s"),
    "fig13": ("workers_per_node", "simulated_s"),
    "fig14": ("partitions", "simulated_s"),
    "fig15": ("visits", "mode", "simulated_s"),
    "f16": ("engine", "recovery", "baseline_s", "faulty_s", "overhead_s",
            "overhead_pct"),
    "opt": ("pipeline", "engine", "naive_s", "optimized_s", "saved_s",
            "identical", "digest", "rules", "fingerprint"),
    "s531": ("chunk", "simulated_s"),
    "s533": ("subjects", "cached", "simulated_s"),
    "ablation": ("variant", "simulated_s"),
    "ablation-tf": ("variant", "simulated_s"),
    "ablation-tuning": ("variant", "simulated_s"),
}


def _first_cells(name):
    """Overrides cutting every axis of ``name`` (of its base, for a
    derived figure) to its first value: columns do not depend on how
    many cells there are, and one cell is cheap."""
    fig = FIGURES[FIGURES[name].base or name]
    return {
        arg: (dict(list(axis.values.items())[:1])
              if isinstance(axis.values, dict) else axis.values[:1])
        for arg, axis in fig.quick.items() if isinstance(axis, Axis)
    }


@pytest.mark.parametrize("name", FIGURES)
def test_quick_rows_keep_their_columns(name):
    fig = FIGURES[name]
    # A ratio row reads both cells of its grid, so those run whole.
    overrides = {} if fig.post and not fig.base else _first_cells(name)
    rows = grid(name, True, **overrides)
    tables = rows.values() if isinstance(rows, dict) else [rows]
    for table in tables:
        assert table
        assert {tuple(row) for row in table} == {ROW_KEYS[name]}


@pytest.mark.parametrize("figure, claim", [
    pytest.param(figure, claim, id=f"{figure}/{claim[0]}")
    for figure in ("table1", "fig10a", "fig10b")
    for claim in CLAIMS[figure]
])
def test_claims_that_need_no_full_run(figure, claim, capsys):
    assert FIGURES[figure].quick == FIGURES[figure].full
    claim_id, holds, paper, _deviation = claim
    cells = CELLS[figure](run_figure(figure, quick=True), None)
    capsys.readouterr()
    assert holds(cells), f"{figure}/{claim_id}: paper: {paper}"
