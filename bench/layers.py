"""Fold a cProfile of one pass onto the layers of ``src/repro``.

A layer is a package under ``src/repro`` (``engines`` is split per
engine).  Every profiled second is *self* time of exactly one function.
Self time of a ``repro`` function belongs to its layer.  Self time of a
foreign function (numpy, the standard library, builtins) belongs to the
``repro`` function that called it: cProfile records self time per
caller edge, so one hop is exact; a foreign caller passes its share on
to *its* callers in proportion to the cumulative time of each edge.
Frames with no ``repro`` ancestor (the benchmark's own) fall in
``bench``.  The shares therefore tile the profiled interval, and
``trace.coverage`` is the part of it that landed in a declared layer.
"""

import os

import repro

LAYERS = (
    "data", "formats", "algorithms", "pipelines", "plan",
    "engines.base", "engines.spark", "engines.myria", "engines.dask",
    "engines.scidb", "engines.tensorflow", "cluster", "obs", "harness",
)

#: Public kernels whose cumulative time and call count are reported.
KERNELS = (
    "nlmeans_3d", "median_otsu", "fit_dtm", "subtract_background",
    "detect_cosmic_rays", "repair_cosmic_rays", "coadd_stack",
    "detect_sources",
)

OUTSIDE = "bench"

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename):
    """The layer owning ``filename``, or ``None`` for foreign code."""
    path = os.path.abspath(filename) if filename[:1] not in "~<" else filename
    if not path.startswith(_PACKAGE_DIR):
        return None
    parts = path[len(_PACKAGE_DIR):].split(os.sep)
    if len(parts) == 1:
        return "harness"  # repro/__init__.py
    if parts[0] == "engines":
        return "engines." + (parts[1] if len(parts) > 2 else "base")
    return parts[0]


def _foreign_shares(stats, home):
    """``{foreign function: {layer: fraction}}``: whose time it spends.

    Each foreign function inherits from its callers, weighted by the
    cumulative time of the edge; a ``repro`` caller is its own layer, a
    foreign root is ``bench``.  Foreign call graphs have cycles (imports,
    json, copy), so the shares are the fixed point of that rule, reached
    by sweeping until nothing moves.
    """
    edges = {}
    for func, entry in stats.items():
        if home[func] is not None:
            continue
        callers = [(caller, edge[3] or 1e-12)
                   for caller, edge in entry[4].items() if caller != func]
        total = sum(weight for _caller, weight in callers)
        edges[func] = [(caller, weight / total) for caller, weight in callers]
    shares = {func: ({} if callers else {OUTSIDE: 1.0})
              for func, callers in edges.items()}
    for _sweep in range(64):
        moved = 0.0
        for func, callers in edges.items():
            if not callers:
                continue
            new = {}
            for caller, weight in callers:
                layer = home.get(caller)
                up = {layer: 1.0} if layer else shares.get(caller, {})
                for name, fraction in up.items():
                    new[name] = new.get(name, 0.0) + fraction * weight
            moved = max(moved, abs(sum(new.values())
                                   - sum(shares[func].values())))
            shares[func] = new
        if moved < 1e-9:
            break
    for func, found in shares.items():
        total = sum(found.values())
        shares[func] = ({name: f / total for name, f in found.items()}
                        if total > 0 else {OUTSIDE: 1.0})
    return shares


def fold(stats):
    """Per-layer numbers from ``pstats.Stats(...).stats``.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n}, "kernels":
    {name: {"s", "calls"}}, "cluster_run": {"s", "calls"}, "py_calls",
    "profiled_s", "coverage"}``; ``self_s`` also carries the ``bench``
    remainder, ``coverage`` is the declared layers' share of
    ``profiled_s``.
    """
    home = {func: layer_of(func[0]) for func in stats}
    self_s = {layer: 0.0 for layer in LAYERS + (OUTSIDE,)}
    calls = {layer: 0 for layer in LAYERS}
    kernels = {name: {"s": 0.0, "calls": 0} for name in KERNELS}
    cluster_run = {"s": 0.0, "calls": 0}
    foreign = _foreign_shares(stats, home)
    py_calls = 0
    for func, (_cc, nc, tt, ct, callers) in stats.items():
        py_calls += nc
        layer = home[func]
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + tt
            calls[layer] = calls.get(layer, 0) + nc  # a new package shows
            if layer == "algorithms" and func[2] in kernels:
                kernels[func[2]]["s"] += ct
                kernels[func[2]]["calls"] += nc
            if layer == "cluster" and func[2] == "run" and \
                    func[0].endswith("cluster.py"):
                cluster_run["s"] += ct
                cluster_run["calls"] += nc
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if not callers or edge_total <= 0:
            self_s[OUTSIDE] += tt
            continue
        for caller, edge in callers.items():
            part = tt * edge[2] / edge_total
            layer = home.get(caller)
            up = {layer: 1.0} if layer else foreign.get(caller,
                                                        {OUTSIDE: 1.0})
            for name, fraction in up.items():
                self_s[name] = self_s.get(name, 0.0) + part * fraction
    profiled = sum(entry[2] for entry in stats.values())
    return {
        "self_s": self_s, "calls": calls, "kernels": kernels,
        "cluster_run": cluster_run, "py_calls": py_calls,
        "profiled_s": profiled,
        "coverage": sum(self_s[layer] for layer in LAYERS) / profiled,
    }
