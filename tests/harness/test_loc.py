"""Tests for the Table 1 LoC accounting."""

import ast
import importlib
import inspect

import pytest

from repro.harness.loc import (
    PAPER_TABLE1,
    count_source_lines,
    measured_table1,
    reused_reference,
    shared_plan_loc,
    table1_rows,
)


def test_count_source_lines_function():
    def sample():
        """Docstring line.

        More docstring.
        """
        x = 1  # comment on code line still counts the line
        # pure comment: not counted

        return x

    assert count_source_lines(sample) == 3  # def, x = 1, return


def test_count_source_lines_string():
    text = """
A = SCAN(T);
-- not a comment marker for this counter; counts as a line
B = [FROM A EMIT A.x];
"""
    assert count_source_lines(text) == 3


def test_count_none_is_zero():
    assert count_source_lines(None) == 0


def test_measured_table_covers_paper_cells():
    measured = measured_table1()
    for use_case in ("neuro", "astro"):
        for step, by_system in PAPER_TABLE1[use_case].items():
            assert step in measured[use_case], (use_case, step)
            for system in by_system:
                assert system in measured[use_case][step]


def test_na_and_x_cells_match_paper_semantics():
    measured = measured_table1()
    # Model fitting NA on SciDB/TF, astronomy all-NA on TF.
    assert measured["neuro"]["Model Fitting"]["SciDB"] is None
    assert measured["neuro"]["Model Fitting"]["TensorFlow"] is None
    assert measured["astro"]["Pre-processing"]["SciDB"] == "X"
    assert measured["astro"]["Co-addition"]["TensorFlow"] is None


def test_rows_render_na():
    rows = table1_rows("neuro")
    cell = next(
        r for r in rows
        if r["step"] == "Model Fitting" and r["system"] == "SciDB"
    )
    assert cell["measured_loc"] == "NA"
    assert cell["paper_loc"] == "NA"


def test_numeric_cells_positive():
    rows = table1_rows("neuro")
    for row in rows:
        if row["measured_loc"] not in ("NA", "X"):
            assert int(row["measured_loc"]) >= 0


def test_shared_plan_row():
    # The plan is written once for all engines, so the paper (which
    # rewrote each pipeline per system) has no corresponding cell.
    for use_case in ("neuro", "astro"):
        assert shared_plan_loc(use_case) > 0
        cell = next(
            r for r in table1_rows(use_case)
            if r["step"] == "Shared Logical Plan"
        )
        assert int(cell["measured_loc"]) == shared_plan_loc(use_case)
        assert cell["system"] == "(all engines)"
        assert cell["paper_loc"] == "NA"


#: The lowerings that reuse the reference (TensorFlow rewrites it).
REUSING_LOWERINGS = {
    "Dask": "repro.engines.dask.lowering",
    "Myria": "repro.engines.myria.lowering",
    "Spark": "repro.engines.spark.lowering",
    "SciDB": "repro.engines.scidb.lowering",
}


def _lowering_tree(package, use_case):
    module = importlib.import_module(f"{package}.{use_case}")
    return ast.parse(inspect.getsource(module))


@pytest.mark.parametrize("use_case", ["neuro", "astro"])
@pytest.mark.parametrize("system", sorted(REUSING_LOWERINGS))
def test_reusing_lowerings_import_no_algorithm(system, use_case):
    """Step bodies live in the reference, so a lowering that reuses it
    never reaches past it into ``repro.algorithms``."""
    tree = _lowering_tree(REUSING_LOWERINGS[system], use_case)
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert not [m for m in imported if m.startswith("repro.algorithms")]


def _reference_names(tree, use_case):
    """Names a module takes from ``repro.pipelines.<use_case>.reference``:
    imported from it, or read as attributes of its alias."""
    package = f"repro.pipelines.{use_case}"
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == f"{package}.reference":
                names.update(alias.name for alias in node.names)
            elif node.module == package:
                aliases.update(alias.asname or alias.name
                               for alias in node.names
                               if alias.name == "reference")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("system", sorted(REUSING_LOWERINGS))
def test_reused_reference_cells_count_what_the_lowering_calls(system):
    """Table 1's "Re-used Reference" cell of an engine counts only
    reference functions that engine's lowering names, in both use
    cases; a lowering that calls none from its step kernels (SciDB's
    astronomy) keeps the paper's NA."""
    for use_case in ("neuro", "astro"):
        functions = reused_reference(use_case).get(system, [])
        counted = {fn.__name__ for fn in functions}
        named = _reference_names(
            _lowering_tree(REUSING_LOWERINGS[system], use_case), use_case)
        assert counted <= named, (use_case, counted - named)
        cell = measured_table1()[use_case]["Re-used Reference"][system]
        if use_case == "neuro" or system != "SciDB":
            assert counted, use_case
            assert cell == sum(count_source_lines(fn) for fn in functions)
        else:
            assert cell is None
