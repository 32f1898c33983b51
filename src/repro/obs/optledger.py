"""Optimizer ledger figure: optimized-vs-naive blame, per engine.

The ``opt`` experiment (``python -m repro.harness opt --quick``) runs
every (pipeline, engine) cell twice — once on the naive logical plan
and once on the optimizer's output — on fresh clusters over identical
staged data.  Its ledger snapshot therefore contains paired runs
labeled ``NN-<pipeline>-<engine>-naive`` / ``...-optimized``.

This module pairs those runs back up and renders the compiler's
scorecard: per-cell simulated makespans side by side and the per-op
critical-path blame rows that moved.  The ``harness ledger --optimize``
gate itself reads the figure's rows (``_opt_failures`` in
``repro.harness.__main__``), not the snapshot: a non-increasing
makespan on every cell, and byte-identical results, whose digests only
the rows carry.
"""

import re

_LABEL = re.compile(
    r"^(?:\d+-)?(?P<cell>.+)-(?P<variant>naive|optimized)$"
)

#: Makespan slack for the non-increasing gate and the scorecard: float
#: scheduling noise only, never a real regression.
MAKESPAN_EPSILON = 1e-6


def opt_pairs(snapshot):
    """``[(cell, naive_run, optimized_run)]`` from an opt snapshot.

    ``cell`` is the ``<pipeline>-<engine>`` label stem.  Runs whose
    labels do not carry the naive/optimized suffix, and cells missing
    either half, are skipped — the formatter degrades gracefully on
    foreign snapshots instead of crashing.
    """
    halves = {}
    order = []
    for run in snapshot.get("runs", ()):
        match = _LABEL.match(run.get("label", ""))
        if not match:
            continue
        cell = match.group("cell")
        if cell not in halves:
            halves[cell] = {}
            order.append(cell)
        halves[cell][match.group("variant")] = run
    return [
        (cell, halves[cell]["naive"], halves[cell]["optimized"])
        for cell in order
        if "naive" in halves[cell] and "optimized" in halves[cell]
    ]


def _op_blame_map(run):
    return {row["op"]: row["seconds"] for row in run.get("op_blame", ())}


def format_opt_comparison(snapshot, blame_rows=3):
    """Plain-text optimizer scorecard for one opt ledger snapshot."""
    pairs = opt_pairs(snapshot)
    if not pairs:
        return "no naive/optimized run pairs in this snapshot"
    lines = ["Optimizer ledger: naive vs optimized (simulated s)"]
    width = max(len(cell) for cell, _n, _o in pairs)
    for cell, naive, optimized in pairs:
        naive_s = naive.get("makespan_s", 0.0)
        opt_s = optimized.get("makespan_s", 0.0)
        saved = naive_s - opt_s
        note = "unchanged" if abs(saved) <= MAKESPAN_EPSILON else (
            f"saved {saved:.3f}s" if saved > 0
            else f"REGRESSED by {-saved:.3f}s"
        )
        lines.append(
            f"  {cell:<{width}}  {naive_s:>10.3f} -> {opt_s:>10.3f}  ({note})"
        )
        if abs(saved) <= MAKESPAN_EPSILON:
            continue
        before = _op_blame_map(naive)
        after = _op_blame_map(optimized)
        moved = sorted(
            ((op, after.get(op, 0.0) - before.get(op, 0.0))
             for op in set(before) | set(after)),
            key=lambda item: abs(item[1]),
            reverse=True,
        )
        for op, delta in moved[:blame_rows]:
            if abs(delta) <= MAKESPAN_EPSILON:
                continue
            lines.append(f"  {'':<{width}}    {op}: {delta:+.3f}s blame")
    return "\n".join(lines)
