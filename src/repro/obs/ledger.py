"""Persistent run ledger: versioned snapshots + regression diffing.

A *run snapshot* captures one cluster's makespan, critical-path blame,
data movement and memory behavior as plain JSON-ready dicts; an
*experiment snapshot* stacks the run snapshots of every cluster an
experiment built (experiments run one cluster per engine/size) under a
schema version, the git SHA, and the scale profile.  Snapshots written
under ``benchmarks/ledger/`` are the perf trajectory the ROADMAP asks
for: ``python -m repro.harness compare`` diffs any two and flags
makespan or blame regressions beyond a tolerance.

Everything here is deterministic (the simulator is), so regenerating a
baseline on an unchanged tree reproduces it byte-for-byte except the
``git_sha`` stamp.
"""

import json
import subprocess
from collections import defaultdict

from repro.obs.attribution import attribute_critical_path
from repro.obs.breakdown import records_of, summarize_records
from repro.obs.critical_path import compute_critical_path

#: Bump when snapshot layout changes incompatibly.
LEDGER_SCHEMA_VERSION = 2

#: Default relative tolerance for makespan/blame regression flags.
DEFAULT_TOLERANCE = 0.05


class LedgerSchemaError(ValueError):
    """A snapshot's schema version does not match this build."""

    def __init__(self, path, found):
        self.path = path
        self.found = found
        super().__init__(
            f"ledger snapshot {path} has schema_version {found!r};"
            f" this build reads version {LEDGER_SCHEMA_VERSION}."
            " Regenerate it with: PYTHONPATH=src python -m repro.harness"
            " ledger <experiment> --quick --out-dir benchmarks/ledger"
        )


def _round(value, digits=6):
    return round(float(value), digits)


def git_sha():
    """HEAD commit of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except Exception:  # noqa: BLE001 - any failure means "no git info"
        return "unknown"


def run_snapshot(cluster, label=None, critical_path=None, top_groups=12):
    """JSON-ready summary of one observed cluster run.

    This is the shared serializer behind both ledger snapshots and
    ``harness trace --json``.
    """
    path = critical_path or compute_critical_path(cluster)
    op_blame = attribute_critical_path(cluster, path=path)
    records = records_of(cluster)
    groups = summarize_records(records)
    spilled = sum(n.memory.spilled_bytes for n in cluster.nodes.values())
    oom = sum(n.memory.oom_count for n in cluster.nodes.values())
    peak = max(
        (n.memory.peak_bytes for n in cluster.nodes.values()), default=0
    )
    return {
        "label": label,
        "makespan_s": _round(cluster.now),
        "utilization": _round(cluster.utilization()),
        "tasks": len(records),
        "critical_path": {
            "path_length_s": _round(path.path_length),
            "wait_s": _round(path.wait_s),
            "idle_s": _round(path.idle_s),
            "blame": [
                {
                    "category": row["category"],
                    "kind": row["kind"],
                    "seconds": _round(row["seconds"]),
                    "fraction": _round(row["fraction"]),
                }
                for row in path.blame()
            ],
        },
        "op_blame": [
            {
                "op": row["op"],
                "kind": row["kind"],
                "seconds": _round(row["seconds"]),
                "fraction": _round(row["fraction"]),
            }
            for row in op_blame
        ],
        "bytes": {
            "node_to_node": cluster.network.bytes_node_to_node,
            "broadcast": cluster.network.bytes_broadcast,
            "s3": cluster.network.bytes_from_s3,
            "spilled": spilled,
        },
        "memory": {
            "peak_bytes": peak,
            "oom_count": oom,
            "spilled_bytes": spilled,
        },
        "groups": [
            {
                "group": row["group"],
                "busy_s": _round(row["busy_s"]),
                "tasks": row["tasks"],
            }
            for row in groups[:top_groups]
        ],
    }


def experiment_snapshot(experiment, runs, quick=False, scale=None):
    """Stack per-run snapshots into one versioned experiment snapshot."""
    blame = defaultdict(float)
    for run in runs:
        for row in run["critical_path"]["blame"]:
            blame[(row["category"], row["kind"])] += row["seconds"]
    blame_rows = [
        {"category": category, "kind": kind, "seconds": _round(seconds)}
        for (category, kind), seconds in blame.items()
    ]
    blame_rows.sort(key=lambda r: (-r["seconds"], r["category"], r["kind"]))
    op_blame = defaultdict(float)
    for run in runs:
        for row in run.get("op_blame", []):
            op_blame[(row["op"], row["kind"])] += row["seconds"]
    op_rows = [
        {"op": op, "kind": kind, "seconds": _round(seconds)}
        for (op, kind), seconds in op_blame.items()
    ]
    op_rows.sort(key=lambda r: (-r["seconds"], r["op"], r["kind"]))
    return {
        "schema_version": LEDGER_SCHEMA_VERSION,
        "experiment": experiment,
        "quick": bool(quick),
        "git_sha": git_sha(),
        "scale": scale,
        "total_makespan_s": _round(sum(r["makespan_s"] for r in runs)),
        "blame": blame_rows,
        "op_blame": op_rows,
        "bytes": {
            key: sum(r["bytes"][key] for r in runs)
            for key in ("node_to_node", "broadcast", "s3", "spilled")
        },
        "memory": {
            "peak_bytes": max((r["memory"]["peak_bytes"] for r in runs),
                              default=0),
            "oom_count": sum(r["memory"]["oom_count"] for r in runs),
            "spilled_bytes": sum(r["memory"]["spilled_bytes"] for r in runs),
        },
        "runs": runs,
    }


def write_snapshot(snapshot, path):
    """Serialize a snapshot to ``path``; returns the path."""
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_snapshot(path):
    """Read a snapshot written by :func:`write_snapshot`."""
    with open(path) as fh:
        snapshot = json.load(fh)
    version = snapshot.get("schema_version")
    if version != LEDGER_SCHEMA_VERSION:
        raise LedgerSchemaError(path, version)
    return snapshot


def compare_snapshots(baseline, candidate, tolerance=DEFAULT_TOLERANCE):
    """Diff two experiment snapshots; returns a JSON-ready report.

    Flags a makespan regression when the candidate exceeds the baseline
    by more than ``tolerance`` (relative), per-blame regressions when a
    category/kind grows by more than ``tolerance`` of the baseline
    makespan, and warns when spills or OOMs appear in the candidate but
    not the baseline.
    """
    b_make = baseline.get("total_makespan_s", 0.0)
    c_make = candidate.get("total_makespan_s", 0.0)
    delta = c_make - b_make
    ratio = (c_make / b_make) if b_make else None
    regression = ratio is not None and ratio > 1.0 + tolerance
    improvement = ratio is not None and ratio < 1.0 - tolerance

    def blame_map(snapshot):
        return {
            (row["category"], row["kind"]): row["seconds"]
            for row in snapshot.get("blame", [])
        }

    b_blame = blame_map(baseline)
    c_blame = blame_map(candidate)
    blame_rows = []
    for key in sorted(set(b_blame) | set(c_blame)):
        category, kind = key
        b_s = b_blame.get(key, 0.0)
        c_s = c_blame.get(key, 0.0)
        row = {
            "category": category,
            "kind": kind,
            "baseline_s": _round(b_s),
            "candidate_s": _round(c_s),
            "delta_s": _round(c_s - b_s),
        }
        if delta:
            row["share_of_delta"] = _round((c_s - b_s) / delta)
        blame_rows.append(row)
    blame_rows.sort(
        key=lambda r: (-r["delta_s"], r["category"], r["kind"])
    )
    threshold = tolerance * max(b_make, 1e-12)
    blame_regressions = [
        row for row in blame_rows if row["delta_s"] > threshold
    ]

    def op_map(snapshot):
        return {
            (row["op"], row["kind"]): row["seconds"]
            for row in snapshot.get("op_blame", [])
        }

    b_ops = op_map(baseline)
    c_ops = op_map(candidate)
    op_rows = []
    for key in sorted(set(b_ops) | set(c_ops)):
        op, kind = key
        b_s = b_ops.get(key, 0.0)
        c_s = c_ops.get(key, 0.0)
        op_rows.append(
            {
                "op": op,
                "kind": kind,
                "baseline_s": _round(b_s),
                "candidate_s": _round(c_s),
                "delta_s": _round(c_s - b_s),
            }
        )
    op_rows.sort(key=lambda r: (-r["delta_s"], r["op"], r["kind"]))
    op_regressions = [row for row in op_rows if row["delta_s"] > threshold]

    warnings = []
    b_mem = baseline.get("memory", {})
    c_mem = candidate.get("memory", {})
    if c_mem.get("oom_count", 0) and not b_mem.get("oom_count", 0):
        warnings.append(
            f"candidate hit {c_mem['oom_count']} OOM event(s);"
            " the baseline had none"
        )
    if c_mem.get("spilled_bytes", 0) and not b_mem.get("spilled_bytes", 0):
        warnings.append(
            f"candidate spilled {c_mem['spilled_bytes']} bytes;"
            " the baseline spilled nothing"
        )

    run_rows = []
    b_runs = baseline.get("runs", [])
    c_runs = candidate.get("runs", [])
    for index in range(max(len(b_runs), len(c_runs))):
        b_run = b_runs[index] if index < len(b_runs) else None
        c_run = c_runs[index] if index < len(c_runs) else None
        run_rows.append(
            {
                "label": (c_run or b_run).get("label"),
                "baseline_s": b_run["makespan_s"] if b_run else None,
                "candidate_s": c_run["makespan_s"] if c_run else None,
                "delta_s": _round(c_run["makespan_s"] - b_run["makespan_s"])
                if b_run and c_run else None,
            }
        )

    return {
        "baseline": {
            "experiment": baseline.get("experiment"),
            "git_sha": baseline.get("git_sha"),
        },
        "candidate": {
            "experiment": candidate.get("experiment"),
            "git_sha": candidate.get("git_sha"),
        },
        "tolerance": tolerance,
        "makespan": {
            "baseline_s": _round(b_make),
            "candidate_s": _round(c_make),
            "delta_s": _round(delta),
            "ratio": _round(ratio) if ratio is not None else None,
            "regression": regression,
            "improvement": improvement,
        },
        "blame_deltas": blame_rows,
        "blame_regressions": blame_regressions,
        "op_blame_deltas": op_rows,
        "op_blame_regressions": op_regressions,
        "warnings": warnings,
        "runs": run_rows,
    }


def format_compare(report, top=10):
    """Plain-text rendering of a :func:`compare_snapshots` report."""
    lines = []
    make = report["makespan"]
    verdict = "REGRESSION" if make["regression"] else (
        "improvement" if make["improvement"] else "within tolerance"
    )
    ratio = make["ratio"]
    lines.append(
        f"Makespan: {make['baseline_s']:.1f}s -> {make['candidate_s']:.1f}s"
        f" ({make['delta_s']:+.1f}s,"
        f" {'x' + format(ratio, '.3f') if ratio is not None else 'n/a'})"
        f" [{verdict}, tolerance {report['tolerance']:.0%}]"
    )
    rows = [r for r in report["blame_deltas"] if r["delta_s"] != 0.0]
    if rows:
        lines.append("Blame deltas (candidate - baseline):")
        width = max([len(str(r["category"])) for r in rows[:top]] + [8])
        lines.append(
            f"  {'category'.ljust(width)}  {'kind':<14}  {'delta_s':>9}"
            f"  {'of delta':>8}"
        )
        for row in rows[:top]:
            share = row.get("share_of_delta")
            lines.append(
                f"  {str(row['category']).ljust(width)}  {row['kind']:<14}"
                f"  {row['delta_s']:>+9.1f}"
                f"  {format(share, '>7.0%') if share is not None else '':>8}"
            )
    for row in report["blame_regressions"][:top]:
        lines.append(
            f"  REGRESSION: {row['category']} [{row['kind']}]"
            f" grew {row['delta_s']:+.1f}s"
        )
    op_rows = [
        r for r in report.get("op_blame_deltas", []) if r["delta_s"] != 0.0
    ]
    if op_rows:
        lines.append("Logical-op deltas (candidate - baseline):")
        width = max([len(str(r["op"])) for r in op_rows[:top]] + [8])
        for row in op_rows[:top]:
            lines.append(
                f"  {str(row['op']).ljust(width)}  {row['kind']:<14}"
                f"  {row['delta_s']:>+9.1f}"
            )
    for row in report.get("op_blame_regressions", [])[:top]:
        lines.append(
            f"  REGRESSION: {row['op']} [{row['kind']}]"
            f" grew {row['delta_s']:+.1f}s"
        )
    for warning in report["warnings"]:
        lines.append(f"  WARNING: {warning}")
    runs = [r for r in report["runs"] if r["delta_s"]]
    if runs:
        lines.append("Per-run makespan deltas:")
        for row in runs:
            lines.append(
                f"  {row['label']}: {row['baseline_s']:.1f}s ->"
                f" {row['candidate_s']:.1f}s ({row['delta_s']:+.1f}s)"
            )
    return "\n".join(lines)
