"""The figure table: every entry's sizes fit its entry point.

A typo in a ``full`` size would otherwise surface only minutes into a
full-profile run.  The claims of the figures whose quick and full sizes
are the same (Table 1, Figures 10a/10b) run here too, so every tier-1
run checks them; the rest run in ``benchmarks/test_claims.py``.
"""

import inspect

import pytest

from benchmarks.test_claims import CELLS, CLAIMS
from repro.harness.figures import FIGURES, run_figure


@pytest.mark.parametrize("name", FIGURES)
def test_sizes_bind_to_the_entry_point(name):
    fig = FIGURES[name]
    signature = inspect.signature(fig.fn)
    signature.bind(**fig.quick)
    signature.bind(**fig.full)
    if fig.variants:
        signature.bind(optimize=True, engines=("auto",), **fig.full)
    if fig.base:
        assert fig.base in FIGURES
        signature.bind(rows=[], **fig.full)


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
