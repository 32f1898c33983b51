"""The optimizer ledger figure: pairing, invariants, formatting."""

from repro.obs import format_opt_comparison, opt_pairs
from repro.obs.optledger import MAKESPAN_EPSILON


def _run(label, makespan, blame=()):
    return {
        "label": label,
        "makespan_s": makespan,
        "op_blame": [
            {"op": op, "kind": "map", "seconds": seconds, "fraction": 0.0}
            for op, seconds in blame
        ],
    }


def _snapshot(runs):
    return {"experiment": "opt", "runs": runs}


def test_pairs_match_numbered_labels_in_order():
    snap = _snapshot([
        _run("00-neuro-dask-naive", 10.0),
        _run("01-neuro-dask-optimized", 9.0),
        _run("02-astro-dask-naive", 20.0),
        _run("03-astro-dask-optimized", 18.0),
    ])
    cells = [cell for cell, _n, _o in opt_pairs(snap)]
    assert cells == ["neuro-dask", "astro-dask"]


def test_unpaired_and_foreign_labels_skipped():
    snap = _snapshot([
        _run("00-neuro-dask-naive", 10.0),
        _run("01-astro-spark-optimized", 5.0),   # missing naive half
        _run("ingest", 3.0),                     # foreign snapshot label
    ])
    assert opt_pairs(snap) == []
    assert format_opt_comparison(snap) == \
        "no naive/optimized run pairs in this snapshot"


def test_check_flags_only_regressions():
    snap = _snapshot([
        _run("00-a-naive", 10.0), _run("01-a-optimized", 10.0),
        _run("02-b-naive", 10.0), _run("03-b-optimized", 11.0),
    ])
    flagged = [line for line in format_opt_comparison(snap).splitlines()
               if "REGRESSED" in line]
    assert len(flagged) == 1
    assert flagged[0].split()[0] == "b"
    assert "REGRESSED by 1.000s" in flagged[0]


def test_check_tolerates_float_noise():
    snap = _snapshot([
        _run("00-a-naive", 10.0),
        _run("01-a-optimized", 10.0 + 1e-9),
    ])
    text = format_opt_comparison(snap)
    assert "REGRESSED" not in text
    assert "(unchanged)" in text


def test_format_renders_saved_unchanged_and_regressed():
    snap = _snapshot([
        _run("00-win-naive", 10.0,
             blame=[("p/x", 6.0)]),
        _run("01-win-optimized", 8.5,
             blame=[("p/x", 4.5)]),
        _run("02-flat-naive", 5.0), _run("03-flat-optimized", 5.0),
        _run("04-bad-naive", 5.0), _run("05-bad-optimized", 6.0),
    ])
    text = format_opt_comparison(snap)
    assert "win" in text and "saved 1.500s" in text
    assert "p/x: -1.500s blame" in text
    assert "unchanged" in text
    assert "REGRESSED by 1.000s" in text


def test_real_opt_baseline_passes_the_gate():
    import json
    from pathlib import Path

    path = (Path(__file__).resolve().parents[2]
            / "benchmarks" / "ledger" / "opt-quick.json")
    snap = json.loads(path.read_text())
    pairs = opt_pairs(snap)
    assert len(pairs) == 6  # 2 pipelines x 3 engines
    saved = {cell: naive["makespan_s"] - optimized["makespan_s"]
             for cell, naive, optimized in pairs}
    assert all(s >= -MAKESPAN_EPSILON for s in saved.values())
    # The one accepted rewrite in the shipped baseline.
    assert saved["astro-dask"] > 0
