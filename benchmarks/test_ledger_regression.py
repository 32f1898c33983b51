"""Opt-in regression gate against the checked-in ledger baselines.

Disabled by default because regenerating the snapshots runs the quick
experiment sweep; enable with::

    REPRO_LEDGER_GATE=1 PYTHONPATH=src python -m pytest benchmarks/test_ledger_regression.py

A failure means the current tree's simulated makespan drifted more
than the tolerance past the committed baseline.  If the change is an
intentional cost-model or scheduling change, regenerate the baselines::

    PYTHONPATH=src python -m repro.harness ledger fig10a fig10b fig10c \
        fig10d fig11 fig12a fig12b fig12c fig12d fig13 fig15 f16 \
        --quick --optimize

(``--optimize`` adds ``opt-quick.json``.)  CI's ``parallel-harness`` job
compares the same thirteen files byte for byte; this gate is the
tolerant one, for a tree whose cost model moved on purpose.
"""

import os
from pathlib import Path

import pytest

from repro.obs.ledger import compare_snapshots, format_compare, load_snapshot

LEDGER_DIR = Path(__file__).parent / "ledger"
BASELINES = ("fig10a", "fig10b", "fig10c", "fig10d", "fig11",
             "fig12a", "fig12b", "fig12c", "fig12d", "fig13", "fig15",
             "f16", "opt")

pytestmark = pytest.mark.skipif(
    not os.environ.get("REPRO_LEDGER_GATE"),
    reason="set REPRO_LEDGER_GATE=1 to run the ledger regression gate",
)


@pytest.mark.parametrize("name", BASELINES)
def test_quick_run_matches_baseline(name, capsys):
    from repro.harness.__main__ import build_experiment_snapshot

    baseline_path = LEDGER_DIR / f"{name}-quick.json"
    assert baseline_path.exists(), (
        f"missing baseline {baseline_path}; regenerate with"
        f" 'python -m repro.harness ledger {name} --quick'"
    )
    baseline = load_snapshot(baseline_path)
    candidate = build_experiment_snapshot(name, quick=True)
    capsys.readouterr()
    report = compare_snapshots(baseline, candidate)
    assert not report["makespan"]["regression"], format_compare(report)
