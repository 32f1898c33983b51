"""Opt-in regression gate against the checked-in ledger baselines.

Disabled by default because regenerating the snapshots runs the quick
experiment sweep; enable with::

    REPRO_LEDGER_GATE=1 PYTHONPATH=src python -m pytest benchmarks/test_ledger_regression.py

A failure means the current tree's simulated makespan drifted more
than the tolerance past the committed baseline.  If the change is an
intentional cost-model or scheduling change, regenerate the baselines::

    PYTHONPATH=src python -m repro.harness ledger $(ls benchmarks/ledger \
        | sed 's/-quick.json$//' | grep -vx opt) --quick --optimize

(``--optimize`` adds ``opt-quick.json``.)  Every
``benchmarks/ledger/<id>-quick.json`` is a baseline, so adding a file
there adds it to this gate.  CI's ``parallel-harness`` job compares the
same files byte for byte; this gate is the tolerant one, for a tree
whose cost model moved on purpose.
"""

import os
from pathlib import Path

import pytest

from repro.obs.ledger import compare_snapshots, format_compare, load_snapshot

LEDGER_DIR = Path(__file__).parent / "ledger"
BASELINES = sorted(
    path.name[:-len("-quick.json")] for path in LEDGER_DIR.glob("*-quick.json")
)

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_LEDGER_GATE"),
    reason="set REPRO_LEDGER_GATE=1 to run the ledger regression gate",
)


@pytest.mark.parametrize("name", BASELINES)
def test_quick_run_matches_baseline(name, capsys):
    from repro.harness.__main__ import build_experiment_snapshot

    baseline = load_snapshot(LEDGER_DIR / f"{name}-quick.json")
    candidate = build_experiment_snapshot(name, quick=True)
    capsys.readouterr()
    report = compare_snapshots(baseline, candidate)
    assert not report["makespan"]["regression"], format_compare(report)
