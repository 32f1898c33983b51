"""Tests for the ledger/compare subcommands and harness-wide blame."""

import json

import pytest

from repro.harness.__main__ import (
    EXPERIMENTS,
    build_experiment_snapshot,
    main,
)
from repro.harness.runner import observe_clusters
from repro.obs import compute_critical_path


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_blame_fractions_sum_to_one_in_quick_mode(name, capsys):
    """Every quick experiment's clusters satisfy the blame invariant."""
    clusters = []
    with observe_clusters(clusters.append):
        EXPERIMENTS[name](True)
    capsys.readouterr()  # the experiment prints its table; discard
    for cluster in clusters:
        path = compute_critical_path(cluster)
        if not path.segments:
            continue
        total = sum(row["fraction"] for row in path.blame())
        assert total == pytest.approx(1.0, abs=1e-6), (
            f"{name}: blame fractions sum to {total}"
        )
        assert path.path_length <= path.makespan + 1e-6


def test_build_experiment_snapshot_shape(capsys):
    snapshot = build_experiment_snapshot("fig12a", quick=True)
    capsys.readouterr()
    assert snapshot["experiment"] == "fig12a"
    assert snapshot["quick"] is True
    assert snapshot["runs"]
    assert snapshot["total_makespan_s"] == pytest.approx(
        sum(run["makespan_s"] for run in snapshot["runs"]), abs=1e-3
    )
    for run in snapshot["runs"]:
        fractions = sum(
            row["fraction"] for row in run["critical_path"]["blame"]
        )
        assert fractions == pytest.approx(1.0, abs=1e-4)


def test_build_experiment_snapshot_unknown_name():
    with pytest.raises(KeyError):
        build_experiment_snapshot("not-an-experiment")


def test_ledger_cli_writes_snapshot(tmp_path, capsys):
    rc = main(["ledger", "fig12a", "--quick", "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    path = tmp_path / "fig12a-quick.json"
    assert path.exists()
    assert str(path) in out
    snapshot = json.loads(path.read_text())
    assert snapshot["schema_version"] == 2
    assert snapshot["experiment"] == "fig12a"
    assert "op_blame" in snapshot
    for run in snapshot["runs"]:
        assert "op_blame" in run


def test_compare_cli_same_snapshot_passes(tmp_path, capsys):
    rc = main(["ledger", "fig12a", "--quick", "--out-dir", str(tmp_path)])
    assert rc == 0
    path = str(tmp_path / "fig12a-quick.json")
    rc = main(["compare", path, path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "within tolerance" in out


def test_compare_cli_json_output(tmp_path, capsys):
    main(["ledger", "fig12a", "--quick", "--out-dir", str(tmp_path)])
    path = str(tmp_path / "fig12a-quick.json")
    capsys.readouterr()
    rc = main(["compare", path, path, "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["makespan"]["regression"] is False
    assert report["makespan"]["delta_s"] == 0.0


def test_compare_cli_rejects_a_stale_bench_report(tmp_path, capsys):
    """A leftover ``BENCH_harness.json`` (its subcommand is gone) is not
    a ledger snapshot: exit 2 with the schema diagnostic, on either
    side, instead of a traceback."""
    main(["ledger", "fig12a", "--quick", "--out-dir", str(tmp_path)])
    ledger = str(tmp_path / "fig12a-quick.json")
    stale = tmp_path / "BENCH_harness.json"
    stale.write_text(json.dumps({"bench_schema_version": 4, "figures": {}}))
    for argv in ([str(stale), ledger], [ledger, str(stale)],
                 [str(stale), str(stale)]):
        capsys.readouterr()
        assert main(["compare"] + argv) == 2
        err = capsys.readouterr().err
        assert f"ledger snapshot {stale} has schema_version None" in err
        assert "this build reads version" in err
