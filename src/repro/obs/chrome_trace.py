"""Chrome ``trace_event`` export of a simulated run.

Produces the JSON object format understood by ``chrome://tracing`` and
Perfetto: one process per node (tasks as complete "X" events in greedy
lanes), one extra process for engine spans (nesting depth as the
thread id), and one memory counter track per node that held memory.

Virtual-clock seconds map to trace microseconds.
"""

import json

from repro.obs.breakdown import records_of

#: Tolerance when packing tasks into lanes: ends and starts produced by
#: float arithmetic may differ in the last ulp.
_LANE_EPSILON = 1e-9

SPAN_PROCESS_NAME = "engine spans"


def chrome_trace(cluster, critical_path=None):
    """Build the trace document (a JSON-ready dict) for one cluster.

    ``critical_path`` (a :class:`~repro.obs.critical_path.CriticalPath`)
    adds flow arrows ("s"/"f" events) linking consecutive task slices
    along the path, so the chain that determines the makespan is
    visually traceable in Perfetto.
    """
    events = []
    pids = {name: pid for pid, name in enumerate(cluster.node_order)}
    span_pid = len(pids)
    for name, pid in pids.items():
        events.append(_process_name(pid, name))
    events.append(_process_name(span_pid, SPAN_PROCESS_NAME))

    # Tasks: one lane (tid) per concurrent slot, packed greedily.
    lanes = {name: [] for name in pids}
    placement = {}
    ordered = sorted(
        records_of(cluster), key=lambda r: (r.start, r.end, r.name)
    )
    for record in ordered:
        lane_ends = lanes[record.node]
        for tid, lane_end in enumerate(lane_ends):
            if lane_end <= record.start + _LANE_EPSILON:
                lane_ends[tid] = record.end
                break
        else:
            tid = len(lane_ends)
            lane_ends.append(record.end)
        placement[(record.name, record.node, record.start, record.end)] = (
            pids[record.node], tid,
        )
        events.append(
            {
                "name": record.name,
                "cat": record.span.name if record.span is not None else "task",
                "ph": "X",
                "ts": record.start * 1e6,
                "dur": (record.end - record.start) * 1e6,
                "pid": pids[record.node],
                "tid": tid,
            }
        )

    # Spans: nesting depth as the thread id keeps parents above children.
    for span in cluster.obs.spans.spans:
        end = span.end if span.end is not None else cluster.now
        args = {"parent": span.parent.name if span.parent else None}
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": (end - span.start) * 1e6,
                "pid": span_pid,
                "tid": span.depth,
                "args": args,
            }
        )

    # Critical-path highlighting: flow arrows between consecutive task
    # slices on the path (wait/idle segments have no slice to anchor).
    if critical_path is not None:
        events.extend(_flow_events(critical_path, placement))

    # Memory counter tracks: the running sum of each tracker's steps.
    for name in sorted(pids):
        used = 0
        for time, delta in cluster.nodes[name].memory.history:
            used += delta
            events.append(
                {
                    "name": "memory used",
                    "ph": "C",
                    "ts": time * 1e6,
                    "pid": pids[name],
                    "tid": 0,
                    "args": {"bytes": used},
                }
            )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "elapsed_simulated_s": cluster.now,
            "nodes": len(cluster.node_order),
            "slots_per_node": cluster.spec.slots_per_node,
        },
    }


def _flow_events(critical_path, placement):
    """Flow start/finish pairs walking the path's task slices in order."""
    from repro.obs.critical_path import EXTENT_KINDS

    anchored = []
    for segment in critical_path.segments:
        if segment.kind not in EXTENT_KINDS:
            continue
        record = critical_path.record_for(segment)
        if record is None:
            continue
        key = (record.name, record.node, record.start, record.end)
        if key not in placement:
            continue
        anchored.append((segment, record, placement[key]))

    events = []
    flow_id = 0
    for (seg_a, rec_a, (pid_a, tid_a)), (seg_b, rec_b, (pid_b, tid_b)) in zip(
        anchored, anchored[1:]
    ):
        if rec_a is rec_b:
            continue
        flow_id += 1
        common = {"name": "critical-path", "cat": "critical-path",
                  "id": flow_id}
        events.append(
            dict(common, ph="s", ts=seg_a.end * 1e6, pid=pid_a, tid=tid_a)
        )
        events.append(
            dict(common, ph="f", bp="e", ts=seg_b.start * 1e6,
                 pid=pid_b, tid=tid_b)
        )
    return events


def write_chrome_trace(cluster, path, critical_path=None):
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    document = chrome_trace(cluster, critical_path=critical_path)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
    return path


def _process_name(pid, name):
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": name},
    }
