"""Smoke tests for the experiment harness at tiny scale.

The full paper-scale shapes are asserted by the benchmark suite; these
tests only verify that every experiment runs end to end and produces
structurally sane rows, using miniature datasets so the whole module
finishes in under a couple of minutes.
"""

import pytest

from repro.harness import experiments as E

TINY_NEURO = {"scale": 20, "n_volumes": 12}
TINY_ASTRO = {"scale": 100, "n_sensors": 4}


def test_fig10a_rows():
    rows = E.fig10a_sizes()
    assert len(rows) == 6
    assert rows[-1]["input_gb"] == pytest.approx(105.4, abs=0.1)


def test_fig10b_rows():
    rows = E.fig10b_sizes()
    assert rows[-1]["largest_intermediate_gb"] == pytest.approx(288, abs=1)


def test_fig10c_tiny():
    rows = E.fig10c_neuro_end_to_end(
        subject_counts=(1,), n_nodes=4, profile=TINY_NEURO
    )
    assert {r["engine"] for r in rows} == {"dask", "myria", "spark"}
    assert all(r["simulated_s"] > 0 for r in rows)


def test_fig10d_tiny():
    rows = E.fig10d_astro_end_to_end(
        visit_counts=(2,), n_nodes=4, profile=TINY_ASTRO
    )
    assert {r["engine"] for r in rows} == {"myria", "spark"}


def test_fig10e_normalization_identity():
    base = [
        {"engine": "x", "subjects": 1, "simulated_s": 100.0},
        {"engine": "x", "subjects": 2, "simulated_s": 150.0},
    ]
    rows = E.fig10e_neuro_normalized(rows=base)
    by = {(r["engine"], r["subjects"]): r["normalized"] for r in rows}
    assert by[("x", 1)] == 1.0
    assert by[("x", 2)] == pytest.approx(0.75)


def test_fig11_tiny():
    rows = E.fig11_ingest(subject_counts=(1,), profile=TINY_NEURO)
    systems = {r["system"] for r in rows}
    assert systems == {
        "spark", "myria", "dask", "tensorflow", "scidb-1", "scidb-2"
    }
    t = {r["system"]: r["simulated_s"] for r in rows}
    assert t["scidb-1"] > t["scidb-2"]


@pytest.mark.parametrize("fn", [E.fig12a_filter, E.fig12b_mean])
def test_fig12ab_tiny(fn):
    rows = fn(n_subjects=2, profile=TINY_NEURO)
    assert len(rows) == 5
    assert all(r["simulated_s"] > 0 for r in rows)


def test_fig12c_tiny():
    rows = E.fig12c_denoise(
        n_subjects=2, profile=TINY_NEURO,
        systems=("spark", "scidb", "tensorflow"),
    )
    assert len(rows) == 3


def test_fig12d_tiny():
    rows = E.fig12d_coadd(n_visits=4, profile=TINY_ASTRO)
    t = {r["system"]: r["simulated_s"] for r in rows}
    assert t["scidb"] > t["myria"]


def test_fig13_tiny():
    rows = E.fig13_myria_workers(
        worker_counts=(1, 4), n_subjects=2, n_nodes=4, profile=TINY_NEURO
    )
    t = {r["workers_per_node"]: r["simulated_s"] for r in rows}
    assert t[4] < t[1]


def test_fig14_tiny():
    rows = E.fig14_spark_partitions(
        partition_counts=(1, 8), n_nodes=4,
        profile={"scale": 20, "n_volumes": 24},
    )
    t = {r["partitions"]: r["simulated_s"] for r in rows}
    assert t[8] < t[1]


def test_fig15_tiny():
    rows = E.fig15_myria_memory(
        visit_counts=(2,), n_nodes=4, chunks=2, profile=TINY_ASTRO
    )
    t = {r["mode"]: r["simulated_s"] for r in rows}
    assert t["pipelined"] != "OOM"
    assert t["pipelined"] < t["materialized"]


def test_s531_tiny():
    rows = E.s531_scidb_chunks(
        chunk_sizes=(500, 1000), n_visits=4, profile=TINY_ASTRO
    )
    assert len(rows) == 2


def test_s533_tiny():
    rows = E.s533_spark_caching(
        subject_counts=(2,), n_nodes=4, profile=TINY_NEURO
    )
    t = {r["cached"]: r["simulated_s"] for r in rows}
    assert t[True] <= t[False]


def test_ablation_tiny():
    rows = E.ablation_scidb_incremental(n_visits=4, profile=TINY_ASTRO)
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
