"""Per-group "where did the time go" summaries of a simulated run.

Grouping prefers explicit structure: a task recorded under a span is
attributed to that span's name.  Tasks recorded outside any span fall
back to a name-prefix heuristic, so hand-built clusters summarize
exactly as before.
"""

from collections import defaultdict

from repro.obs.metrics import Histogram


def default_grouper(name):
    """Group task names by their engine/stage prefix.

    ``spark-stage3-part7`` -> ``spark-stage3``; ``dask-denoise_one-42``
    -> ``dask-denoise_one``; anything without digits groups as itself.
    """
    parts = name.split("-")
    while parts and parts[-1].isdigit():
        parts.pop()
    head = "-".join(parts) if parts else name
    return head.rstrip("0123456789")


def records_of(cluster):
    """The task records of a cluster, in the order they were filed."""
    return list(cluster.obs.task_records)


def summarize_records(records, grouper=None):
    """Aggregate task records into per-group totals.

    A record's group is ``grouper(record.name)`` when a ``grouper`` is
    given, else the name of the span it was filed under, else
    :func:`default_grouper` of its name.  Returns rows sorted by
    descending busy time: ``{"group", "busy_s", "tasks",
    "first_start", "last_end", "mean_task_s", "max_task_s"}``.
    """
    # group -> [busy_s, tasks, first_start, last_end, max_task_s]; sums
    # run in filing order.
    groups = {}
    for record in records:
        if grouper is not None:
            group = grouper(record.name)
        elif record.span is not None:
            group = record.span.name
        else:
            group = default_grouper(record.name)
        start = record.start
        end = record.end
        duration = end - start
        acc = groups.get(group)
        if acc is None:
            acc = groups[group] = [0.0, 0, start, end, 0.0]
        acc[0] += duration
        acc[1] += 1
        if start < acc[2]:
            acc[2] = start
        if end > acc[3]:
            acc[3] = end
        if duration > acc[4]:
            acc[4] = duration
    rows = [
        {
            "group": group,
            "busy_s": busy,
            "tasks": count,
            "first_start": first,
            "last_end": last,
            "mean_task_s": busy / count,
            "max_task_s": longest,
        }
        for group, (busy, count, first, last, longest) in groups.items()
    ]
    rows.sort(key=lambda r: -r["busy_s"])
    return rows


def straggler_rows(records):
    """Per-group duration spread: where max >> mean, stragglers.

    Over the records that carry a task id (a coordinator charge or the
    lost extent of a dead attempt is no task), grouped by
    :func:`default_grouper`.  Rows sorted by descending total busy
    time: ``{"group", "tasks", "mean_s", "p95_s", "max_s", "skew"}``
    where ``skew`` is ``max / mean``.
    """
    durations = {}
    for record in records:
        if record.task_id is not None:
            group = default_grouper(record.name)
            if group not in durations:
                durations[group] = Histogram(group)
            durations[group].observe(record.end - record.start)
    rows = []
    for group, hist in durations.items():
        mean = hist.mean
        rows.append(
            {
                "group": group,
                "tasks": hist.count,
                "mean_s": mean,
                "p95_s": hist.percentile(95),
                "max_s": hist.max,
                "skew": hist.max / mean if mean > 0 else 0.0,
            }
        )
    rows.sort(key=lambda r: -(r["mean_s"] * r["tasks"]))
    return rows


def node_utilization_rows(cluster):
    """Per-node busy fraction of the elapsed simulated time."""
    if cluster.now == 0:
        return []
    busy = defaultdict(float)
    for record in records_of(cluster):
        busy[record.node] += record.end - record.start
    return [
        {
            "node": name,
            "utilization": busy.get(name, 0.0)
            / (cluster.now * cluster.spec.slots_per_node),
        }
        for name in cluster.node_order
    ]


def _fmt_bytes(nbytes):
    """Human-scale byte rendering (GB/MB/KB/B)."""
    for unit, scale in (("GB", 1024 ** 3), ("MB", 1024 ** 2), ("KB", 1024)):
        if nbytes >= scale:
            return f"{nbytes / scale:.2f} {unit}"
    return f"{nbytes} B"


def format_breakdown(cluster, top=12):
    """Plain-text "where did the time go" report for one run.

    Sections: per-group busy time with shares, data-movement totals
    from the network model, per-node peaks from the cluster's node
    summaries, and the straggler spread of the groups with more than
    one task.
    """
    lines = []
    elapsed = cluster.now
    records = records_of(cluster)
    rows = summarize_records(records)
    total_busy = sum(r["busy_s"] for r in rows) or 1.0
    lines.append(
        f"Where did the time go ({elapsed:.1f} simulated s,"
        f" utilization {cluster.utilization():.0%}):"
    )
    width = max([len(r["group"]) for r in rows[:top]] + [5])
    lines.append(
        f"  {'group'.ljust(width)}  {'busy_s':>10}  {'share':>6}"
        f"  {'tasks':>6}  {'max_task_s':>10}"
    )
    for row in rows[:top]:
        lines.append(
            f"  {row['group'].ljust(width)}  {row['busy_s']:>10.1f}"
            f"  {row['busy_s'] / total_busy:>6.1%}  {row['tasks']:>6}"
            f"  {row['max_task_s']:>10.2f}"
        )
    if len(rows) > top:
        rest = sum(r["busy_s"] for r in rows[top:])
        lines.append(
            f"  {'(other groups)'.ljust(width)}  {rest:>10.1f}"
            f"  {rest / total_busy:>6.1%}"
            f"  {sum(r['tasks'] for r in rows[top:]):>6}"
        )

    network = cluster.network
    lines.append("Data movement:")
    lines.append(
        f"  node-to-node  {_fmt_bytes(network.bytes_node_to_node)}"
        f"  (broadcast wire {_fmt_bytes(network.bytes_broadcast)})"
    )
    lines.append(f"  s3 ingest     {_fmt_bytes(network.bytes_from_s3)}")
    spilled = sum(n.memory.spilled_bytes for n in cluster.nodes.values())
    lines.append(f"  memory spill  {_fmt_bytes(spilled)}")

    lines.append("Per-node:")
    lines.append(
        f"  {'node':<10}  {'peak_mem':>10}  {'busy_s':>10}  {'util':>6}"
        f"  {'oom':>4}  {'spilled':>10}"
    )
    util = {r["node"]: r["utilization"] for r in node_utilization_rows(cluster)}
    for summary in cluster.node_summaries():
        lines.append(
            f"  {summary['node']:<10}"
            f"  {_fmt_bytes(summary['peak_memory_bytes']):>10}"
            f"  {summary['busy_seconds']:>10.1f}"
            f"  {util.get(summary['node'], 0.0):>6.1%}"
            f"  {summary['oom_count']:>4}"
            f"  {_fmt_bytes(summary['spilled_bytes']):>10}"
        )

    stragglers = [r for r in straggler_rows(records) if r["tasks"] > 1]
    if stragglers:
        lines.append("Straggler spread (max/mean per group):")
        for row in stragglers[:5]:
            lines.append(
                f"  {row['group']:<{width}}  mean {row['mean_s']:.2f}s"
                f"  p95 {row['p95_s']:.2f}s  max {row['max_s']:.2f}s"
                f"  skew {row['skew']:.1f}x"
            )
    return "\n".join(lines)
