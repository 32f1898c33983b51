"""Opt-in recovery-overhead gate for experiment F16.

Disabled by default because the F16 quick sweep runs ten pipeline
executions (a fault-free baseline plus a faulty run for each of the
five engines); enable with::

    REPRO_LEDGER_GATE=1 PYTHONPATH=src python -m pytest benchmarks/test_f16_recovery.py

Asserts the paper-faithful ordering of recovery costs -- lineage
recompute (Spark, Dask) beats a coordinator query restart (Myria),
which beats rerunning from the last checkpoint or scratch (SciDB,
TensorFlow) --, that each faulted run says how much of its overhead is
``@recovery``, and that the fixed seed reproduces the checked-in
``benchmarks/ledger/f16-quick.json`` byte-for-byte except for the
``git_sha`` stamp.  Regenerate after an intentional cost-model change::

    PYTHONPATH=src python -m repro.harness ledger f16 --quick
"""

import json
import os
from pathlib import Path

import pytest

from repro.obs.ledger import load_snapshot

LEDGER_DIR = Path(__file__).parent / "ledger"

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_LEDGER_GATE"),
    reason="set REPRO_LEDGER_GATE=1 to run the F16 recovery gate",
)


@pytest.fixture(scope="module")
def f16():
    """Run the F16 quick sweep once; yield (rows, experiment snapshot)."""
    from repro.harness.__main__ import build_experiment_snapshot

    snapshot, rows = build_experiment_snapshot("f16", quick=True)
    return rows, snapshot


def test_recovery_class_ordering(f16, capsys):
    rows, _ = f16
    capsys.readouterr()
    overhead = {row["engine"]: row["overhead_pct"] for row in rows}
    assert set(overhead) == {"spark", "dask", "myria", "scidb", "tensorflow"}
    # Lineage recompute < query restart < rerun from checkpoint/scratch.
    assert overhead["spark"] < overhead["myria"]
    assert overhead["dask"] < overhead["myria"]
    assert overhead["myria"] < overhead["scidb"]
    assert overhead["myria"] < overhead["tensorflow"]
    # Every faulty run costs something: recovery is never free.
    assert all(row["overhead_s"] > 0 for row in rows)


def test_every_faulted_run_names_its_recovery(f16, capsys):
    """``@recovery`` is the recompute or the wait for the reboot: only
    faulted runs have it, and for the two recompute engines it accounts
    for all the crash cost them."""
    rows, snapshot = f16
    capsys.readouterr()
    runs = snapshot["runs"]
    assert len(runs) == 2 * len(rows)
    for row, clean, faulted in zip(rows, runs[0::2], runs[1::2]):
        recovery = sum(
            r["seconds"] for r in faulted["op_blame"] if r["op"] == "@recovery"
        )
        assert recovery > 0, faulted["label"]
        assert all(r["op"] != "@recovery" for r in clean["op_blame"]), (
            clean["label"]
        )
        if row["engine"] in ("spark", "dask"):
            assert recovery >= row["overhead_s"], faulted["label"]


def test_blame_fractions_sum_to_one(f16, capsys):
    _, snapshot = f16
    capsys.readouterr()
    checked = 0
    for run in snapshot["runs"]:
        blame = run["critical_path"]["blame"]
        if not blame:
            continue
        total = sum(row["fraction"] for row in blame)
        assert total == pytest.approx(1.0, abs=1e-4), run["label"]
        checked += 1
    assert checked == len(snapshot["runs"])


def test_fixed_seed_reproduces_checked_in_ledger(f16, capsys):
    _, snapshot = f16
    capsys.readouterr()
    baseline_path = LEDGER_DIR / "f16-quick.json"
    assert baseline_path.exists(), (
        f"missing baseline {baseline_path}; regenerate with"
        f" 'python -m repro.harness ledger f16 --quick'"
    )
    baseline = load_snapshot(baseline_path)
    candidate = json.loads(json.dumps(snapshot))  # normalize tuples etc.
    for doc in (baseline, candidate):
        doc.pop("git_sha", None)
    assert json.dumps(candidate, sort_keys=True) == json.dumps(
        baseline, sort_keys=True
    )
