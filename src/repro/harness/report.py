"""Paper-style table printers for experiment results.

Experiments return row dicts; these helpers render them as the grids
the paper's figures/tables show, for human inspection and for
EXPERIMENTS.md.
"""


def format_value(value):
    """Format value."""
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def print_table(rows, columns=None, title=None, out=print):
    """Render rows as a fixed-width text table."""
    if not rows:
        out("(no rows)")
        return
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(format_value(r.get(c, ""))) for r in rows))
        for c in columns
    }
    if title:
        out(f"== {title} ==")
    header = "  ".join(str(c).rjust(widths[c]) for c in columns)
    out(header)
    out("-" * len(header))
    for row in rows:
        out("  ".join(format_value(row.get(c, "")).rjust(widths[c]) for c in columns))


def print_breakdown(cluster, out=print):
    """Render the observability "where did the time go" report."""
    from repro.obs.breakdown import format_breakdown

    out(format_breakdown(cluster))


def snapshot_blame(snapshots, top=None):
    """Aggregate critical-path blame across a figure's run snapshots.

    Snapshots rather than live clusters, because a figure's clusters
    may have run in a pool worker or been replayed from the cache.
    Returns rows ``{"category", "kind", "seconds", "share"}`` sorted
    largest-first; shares are of the summed makespan, so over the full
    (untruncated) list they total 1.0.
    """
    from collections import defaultdict

    totals = defaultdict(float)
    makespan = 0.0
    for snapshot in snapshots:
        makespan += snapshot["makespan_s"]
        for row in snapshot["critical_path"]["blame"]:
            totals[(row["category"], row["kind"])] += row["seconds"]
    rows = [
        {
            "category": category,
            "kind": kind,
            "seconds": seconds,
            "share": seconds / makespan if makespan else 0.0,
        }
        for (category, kind), seconds in totals.items()
    ]
    rows.sort(key=lambda r: (-r["seconds"], r["category"], r["kind"]))
    return rows[:top] if top else rows


def print_snapshot_blame(snapshots, title="blame (critical path)", top=8,
                         out=print):
    """Annotate a figure with where its simulated time actually went."""
    display = [
        {
            "category": r["category"],
            "kind": r["kind"],
            "seconds": r["seconds"],
            "share": f"{r['share']:.1%}",
        }
        for r in snapshot_blame(snapshots, top=top)
    ]
    print_table(display, title=title, out=out)


def pivot(rows, index, column, value="simulated_s"):
    """Pivot long-form rows into a grid: one row per ``index`` value,
    one column per ``column`` value."""
    index_values = sorted({r[index] for r in rows})
    column_values = sorted({r[column] for r in rows}, key=str)
    grid = []
    for iv in index_values:
        row = {index: iv}
        for cv in column_values:
            matches = [
                r for r in rows if r[index] == iv and r[column] == cv
            ]
            if matches:
                row[str(cv)] = matches[0].get(value)
        grid.append(row)
    return grid


def print_series(rows, index, column, value="simulated_s", title=None, out=print):
    """Print a pivoted grid (the shape of the paper's line charts)."""
    grid = pivot(rows, index, column, value=value)
    columns = [index] + sorted({str(r[column]) for r in rows})
    print_table(grid, columns=columns, title=title, out=out)


def speedup_table(rows, base_nodes=16):
    """Figures 10g/10h companion: speedup relative to the smallest
    cluster, per engine."""
    engines = sorted({r["engine"] for r in rows})
    out = []
    for engine in engines:
        engine_rows = sorted(
            (r for r in rows if r["engine"] == engine), key=lambda r: r["nodes"]
        )
        base = next(r for r in engine_rows if r["nodes"] == base_nodes)
        for row in engine_rows:
            out.append(
                {
                    "engine": engine,
                    "nodes": row["nodes"],
                    "speedup": base["simulated_s"] / row["simulated_s"],
                    "ideal": row["nodes"] / base_nodes,
                }
            )
    return out
