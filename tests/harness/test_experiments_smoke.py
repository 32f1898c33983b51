"""Smoke tests for the experiment harness at tiny scale.

The full paper-scale shapes are asserted by the benchmark suite; these
tests only verify that every experiment runs end to end through
:func:`~repro.harness.figures.grid` and produces structurally sane rows,
using miniature datasets so the whole module finishes in under a couple
of minutes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.harness import experiments as E
from repro.harness.figures import FIGURES, grid

TINY_NEURO = {"scale": 20, "n_volumes": 12}
TINY_ASTRO = {"scale": 100, "n_sensors": 4}


def test_fig10a_rows():
    rows = grid("fig10a", True)
    assert len(rows) == 6
    assert rows[-1]["input_gb"] == pytest.approx(105.4, abs=0.1)


def test_fig10b_rows():
    rows = grid("fig10b", True)
    assert rows[-1]["largest_intermediate_gb"] == pytest.approx(288, abs=1)


def test_fig10c_tiny():
    rows = grid("fig10c", True, count=(1,), n_nodes=4, profile=TINY_NEURO)
    assert {r["engine"] for r in rows} == {"dask", "myria", "spark"}
    assert all(r["simulated_s"] > 0 for r in rows)


def test_fig10d_tiny():
    rows = grid("fig10d", True, count=(2,), n_nodes=4, profile=TINY_ASTRO)
    assert {r["engine"] for r in rows} == {"myria", "spark"}


def test_fig10e_normalization_identity():
    base = [
        {"engine": "x", "subjects": 1, "simulated_s": 100.0},
        {"engine": "x", "subjects": 2, "simulated_s": 150.0},
    ]
    rows = FIGURES["fig10e"].post(base)
    by = {(r["engine"], r["subjects"]): r["normalized"] for r in rows}
    assert by[("x", 1)] == 1.0
    assert by[("x", 2)] == pytest.approx(0.75)


def test_fig11_tiny():
    """Through the entry point ``bench/workloads.py`` calls."""
    systems = FIGURES["fig11"].full["system"].values
    rows = E.fig11_ingest(subject_counts=(1,), profile=TINY_NEURO,
                          systems=systems)
    assert [r["system"] for r in rows] == list(systems)
    assert set(systems) == {
        "spark", "myria", "dask", "tensorflow", "scidb-1", "scidb-2"
    }
    t = {r["system"]: r["simulated_s"] for r in rows}
    assert t["scidb-1"] > t["scidb-2"]


@pytest.mark.parametrize("fn", [E.fig12a_filter, E.fig12b_mean])
def test_fig12ab_tiny(fn):
    """The other two entry points ``bench/workloads.py`` calls."""
    rows = fn(n_subjects=2, profile=TINY_NEURO,
              systems=FIGURES["fig12a"].full["system"].values)
    assert len(rows) == 5
    assert all(r["simulated_s"] > 0 for r in rows)


def test_fig12c_tiny():
    rows = grid("fig12c", True, count=2, profile=TINY_NEURO,
                system=("spark", "scidb", "tensorflow"))
    assert len(rows) == 3


def test_fig12d_tiny():
    rows = grid("fig12d", True, count=4, profile=TINY_ASTRO)
    t = {r["system"]: r["simulated_s"] for r in rows}
    assert t["scidb"] > t["myria"]


def test_fig13_tiny():
    workers = FIGURES["fig13"].quick["tuning"].values
    rows = grid("fig13", True, tuning={w: workers[w] for w in (1, 4)},
                count=2, n_nodes=4, profile=TINY_NEURO)
    t = {r["workers_per_node"]: r["simulated_s"] for r in rows}
    assert t[4] < t[1]


def test_fig14_tiny():
    rows = grid(
        "fig14", True,
        tuning={p: {"input_partitions": p, "group_partitions": p}
                for p in (1, 8)},
        n_nodes=4, profile={"scale": 20, "n_volumes": 24},
    )
    t = {r["partitions"]: r["simulated_s"] for r in rows}
    assert t[8] < t[1]


def test_fig15_tiny():
    rows = grid("fig15", True, count=(2,), n_nodes=4, profile=TINY_ASTRO)
    t = {r["mode"]: r["simulated_s"] for r in rows}
    assert t["pipelined"] != "OOM"
    assert t["pipelined"] < t["materialized"]


def test_s531_tiny():
    rows = grid("s531", True, count=4, profile=TINY_ASTRO)
    assert [r["chunk"] for r in rows] == [500, 1000]


def test_s533_tiny():
    rows = grid("s533", True, count=(2,), n_nodes=4, profile=TINY_NEURO)
    t = {r["cached"]: r["simulated_s"] for r in rows}
    assert t[True] <= t[False]


def test_ablation_tiny():
    rows = grid("ablation", True, count=4, profile=TINY_ASTRO)
    by = {r["variant"]: r["simulated_s"] for r in rows}
    assert by["stock AQL"] > by["incremental [34]"]
    assert by["speedup"] > 1.0


def test_experiments_imports_no_lowering_module():
    """``repro.plan.lower`` is the only way from the harness to an
    engine's lowering (``repro/plan/__init__.py`` promises as much)."""
    import ast
    import re

    lowering = re.compile(r"^repro\.engines\.\w+\.lowering(\.|$)")
    with open(E.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
    assert [name for name in imported if lowering.match(name)] == []


def test_neuro_trials_load_no_masked_arrays_and_no_astro_lowering():
    """A fresh process that runs Figure 10c cells (one subject, every
    engine) and every Figure 12a step never imports ``numpy.ma`` (which
    costs every process milliseconds and a megabyte) and compiles no
    astronomy lowering: ``repro.plan.lower`` imports only the lowering
    module of the plan it lowers."""
    script = (
        "import sys\n"
        "from repro.harness.figures import grid\n"
        "grid('fig10c', True, count=(1,))\n"
        "grid('fig12a', True)\n"
        "print('numpy.ma' in sys.modules)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.engines')"
        " and m.endswith('.lowering.astro')))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split("\n")[:2] == ["False", "[]"]


def test_astro_trials_load_no_masked_arrays():
    """A fresh process that runs a quick Figure 10d cell (Step 1-A's
    background, cosmic-ray and source statistics) never imports
    ``numpy.ma``: the medians go through ``stencil.median``."""
    script = (
        "import sys\n"
        "from repro.harness.figures import grid\n"
        "grid('fig10d', True, count=(1,))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split("\n")[0] == "False"
