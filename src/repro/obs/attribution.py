"""Logical-op attribution: fold critical-path blame up to plan ops.

The blame ledger attributes makespan to *physical* categories
(``spark-denoise``, ``myria-shuffle-...``) that cannot be compared
across engines.  This module folds the same critical-path segments up
to the *logical* ops of ``repro.plan`` -- the level at which every
workload is defined exactly once -- so per-op cost is comparable
op-for-op across all five systems (the paper's Table 1 comparison made
quantitative).

A record's op is the one its maker named -- the required ``op=`` of the
``Task``, the ``charge_master`` call or ``record_task`` -- so the fold
looks nothing up and never guesses.  A segment resolves to:

1. ``@idle`` when no record covers it (gaps between ``cluster.run``
   calls that no coordinator charge covers);
2. ``@recovery`` when it is a ``recovery-wait`` (the ready->start gap of
   a retried attempt: failure detection plus backoff);
3. the ``op`` its record carries -- a plan op, or the ``@overhead`` /
   ``@recovery`` a lowering, an engine, the executor or the harness
   wrote out.

Pseudo-ops keep the tiling invariant: attributed op costs tile the
makespan exactly and fractions sum to 1, property-tested like
``critical_path``.
"""

from collections import defaultdict

from repro.obs.critical_path import compute_critical_path
from repro.obs.spans import PSEUDO_IDLE, PSEUDO_RECOVERY


def resolve_segment_op(segment, record):
    """Provenance id of one critical-path segment (never ``None``)."""
    if record is None:
        return PSEUDO_IDLE
    if segment is not None and segment.kind == "recovery-wait":
        return PSEUDO_RECOVERY
    return record.op


def attribute_critical_path(cluster, path=None):
    """Fold a run's critical path up to logical ops.

    Returns rows ``{"op", "kind", "seconds", "fraction"}`` sorted
    largest-first.  The rows tile the makespan exactly: seconds sum to
    the makespan and fractions sum to 1 (pseudo-ops included).
    """
    if path is None:
        path = compute_critical_path(cluster)
    totals = defaultdict(float)
    for segment in path.segments:
        op = resolve_segment_op(segment, path.record_for(segment))
        totals[(op, segment.kind)] += segment.duration
    makespan = path.makespan or 1.0
    rows = [
        {
            "op": op,
            "kind": kind,
            "seconds": seconds,
            "fraction": seconds / makespan,
        }
        for (op, kind), seconds in totals.items()
    ]
    rows.sort(key=lambda r: (-r["seconds"], r["op"], r["kind"]))
    return rows


def op_totals(rows):
    """Collapse attribution rows over kinds: op -> total seconds."""
    totals = defaultdict(float)
    for row in rows:
        totals[row["op"]] += row["seconds"]
    return dict(totals)


def op_table(columns, plan=None):
    """Cross-engine per-op cost table.

    ``columns`` maps a column label (usually the engine name) to the
    attribution rows of one run.  Returns
    ``{"ops": [...], "columns": [...], "cells": {op: {label: seconds}}}``
    with ops ordered by the plan (when given) followed by pseudo-ops,
    else by total cost.
    """
    labels = list(columns)
    per_op = {label: op_totals(rows) for label, rows in columns.items()}
    seen = set()
    for totals in per_op.values():
        seen.update(totals)
    if plan is not None:
        ordered = [op for op in plan.provenance_ids() if op in seen]
        extras = sorted(op for op in seen if op not in set(ordered))
    else:
        grand = defaultdict(float)
        for totals in per_op.values():
            for op, seconds in totals.items():
                grand[op] += seconds
        ordered, extras = [], []
        for op in sorted(grand, key=lambda o: (-grand[o], o)):
            (extras if op.startswith("@") else ordered).append(op)
    ops = ordered + [op for op in extras if not op.startswith("@")] + [
        op for op in extras if op.startswith("@")
    ]
    cells = {
        op: {label: per_op[label].get(op, 0.0) for label in labels}
        for op in ops
    }
    return {"ops": ops, "columns": labels, "cells": cells}


def format_attribution(rows, top=12):
    """Plain-text per-op blame report for one run."""
    lines = []
    total = sum(r["seconds"] for r in rows)
    lines.append(f"Per-op attribution ({total:.1f}s makespan):")
    width = max([len(str(r["op"])) for r in rows[:top]] + [8])
    lines.append(
        f"  {'op'.ljust(width)}  {'kind':<14}  {'seconds':>9}  {'share':>6}"
    )
    for row in rows[:top]:
        lines.append(
            f"  {str(row['op']).ljust(width)}  {row['kind']:<14}"
            f"  {row['seconds']:>9.1f}  {row['fraction']:>6.1%}"
        )
    if len(rows) > top:
        rest = sum(r["seconds"] for r in rows[top:])
        lines.append(
            f"  {'(other)'.ljust(width)}  {'':<14}  {rest:>9.1f}"
            f"  {rest / (total or 1.0):>6.1%}"
        )
    return "\n".join(lines)


def format_op_table(table, digits=1):
    """Plain-text rendering of :func:`op_table` (ops x engines)."""
    labels = table["columns"]
    width = max([len(op) for op in table["ops"]] + [4])
    col = max([len(label) for label in labels] + [9])
    lines = [
        "  ".join(["op".ljust(width)] + [label.rjust(col) for label in labels])
    ]
    for op in table["ops"]:
        cells = table["cells"][op]
        lines.append(
            "  ".join(
                [op.ljust(width)]
                + [format(cells[label], f">{col}.{digits}f") for label in labels]
            )
        )
    return "\n".join(lines)
