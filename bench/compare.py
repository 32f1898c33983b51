#!/usr/bin/env python3
"""Compare two result documents written by ``run.py --out``.

    python3 bench/compare.py BASE.json NEW.json

One row per (workload, metric): both values, the ratio NEW/BASE and its
base, the bound and a verdict.

``worse``       NEW is worse than BASE by more than the metric's bound.
``unresolved``  not worse, but the interquartile spread of either
                side's rounds exceeds the bound, so "unchanged" is not
                shown either.
``ok``          within the bound, and the rounds are steadier than it.
``changed``     a count that must repeat exactly does not (information:
                a drop in ``*.calls`` is what an optimisation looks like).
``info``        a per-layer time; it has no bound.

``sim_total_s`` must be identical.  Exit status is 1 on any ``worse``,
on a ``sim_total_s`` that moved, or on more failed units in NEW.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric, base, new):
    """Verdict for one end-to-end metric (cells carry ``rounds``)."""
    bound = metric["bound"]
    a, b = base["value"], new["value"]
    loss = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    if loss > bound:
        return "worse"
    if max(spread(base["rounds"]), spread(new["rounds"])) > bound:
        return "unresolved"
    return "ok"


def compare(base, new, declaration):
    """Rows ``(workload, metric, unit, a, b, bound, verdict)`` and the
    exit status."""
    rows, status = [], 0
    for name, a in base["workloads"].items():
        b = new["workloads"].get(name)
        if b is None:
            continue
        if b["failed"] > a["failed"]:
            status = 1
        rows.append((name, "failed", "count", a["failed"], b["failed"], 0,
                     "worse" if b["failed"] > a["failed"] else "ok"))
        for metric in declaration["end_to_end"]:
            key = metric["name"]
            if key in a["end_to_end"] and key in b["end_to_end"]:
                cell_a, cell_b = a["end_to_end"][key], b["end_to_end"][key]
                rows.append((name, key, metric["unit"], cell_a["value"],
                             cell_b["value"], metric["bound"],
                             verdict(metric, cell_a, cell_b)))
        if "sim_total_s" in a and "sim_total_s" in b:
            same = a["sim_total_s"] == b["sim_total_s"]
            rows.append((name, "sim_total_s", "virtual_s", a["sim_total_s"],
                         b["sim_total_s"], 0, "ok" if same else "worse"))
        for metric in declaration["per_layer"]:
            key = metric["name"]
            if key == "sim_total_s" or key not in a["per_layer"] \
                    or key not in b["per_layer"]:
                continue
            va, vb = a["per_layer"][key]["value"], b["per_layer"][key]["value"]
            if va == vb == 0:
                continue
            if metric["unit"] == "count":
                word = "ok" if va == vb else "changed"
            else:
                word = "info"
            rows.append((name, key, metric["unit"], va, vb, None, word))
    if any(row[-1] == "worse" for row in rows):
        status = 1
    return rows, status


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declaration = json.load(fh)
    for side, doc in (("BASE", base), ("NEW", new)):
        host = doc["host"]
        print(f"{side}: git {host['git_sha'][:12]} seed {host['seed']} "
              f"rounds {host['rounds']} nproc {host['nproc']} "
              f"numpy {host['numpy']}")
    rows, status = compare(base, new, declaration)
    print(f"{'workload':<11} {'metric':<34} {'unit':<9} {'BASE':>12} "
          f"{'NEW':>12} {'NEW/BASE':>9} {'bound':>6}  verdict")
    for name, key, unit, a, b, bound, word in rows:
        ratio = f"{b / a:9.4f}" if a else f"{'-':>9}"
        limit = f"{bound:6.2f}" if bound is not None else f"{'-':>6}"
        print(f"{name:<11} {key:<34} {unit:<9} {a:12.6g} {b:12.6g} "
              f"{ratio} {limit}  {word}")
    print("ratios are NEW over BASE; a bound is a share of BASE")
    return status


if __name__ == "__main__":
    sys.exit(main())
