"""One declaration per figure: the table every reader of a figure takes.

``FIGURES`` maps each experiment id, in ``harness --list`` order, to a
:class:`Figure`: the trial each of its cells runs, the axes and
arguments of its ``quick`` and ``full`` profiles (the only place a
figure's sizes are written), the arguments both profiles share, an
optional ``post`` step over its rows, and how the rows print.
:func:`grid` runs a figure's cells and returns its rows;
:func:`run_figure` also prints them.  ``harness <id>``, ``harness
ledger``, ``harness trace <id>``, ``harness optimize`` and the claims in
``benchmarks/test_claims.py`` all read this table, so they agree on what
a figure is.
"""

import contextlib
import itertools
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial

from repro.harness import experiments  # noqa: F401 - registers the trials
from repro.harness.parallel import TrialSpec, collecting_snapshots, grid_rows
from repro.harness.report import (
    print_series,
    print_snapshot_blame,
    print_table,
)
from repro.harness.runner import ASTRO_BENCH, DEFAULT_NODES, NEURO_BENCH

#: Miniature dataset profiles of ``--quick``; a full run uses
#: ``runner.NEURO_BENCH`` / ``ASTRO_BENCH``.
QUICK_NEURO = {"scale": 20, "n_volumes": 24}
QUICK_ASTRO = {"scale": 100, "n_sensors": 6}
#: One subject with all 288 of its volumes (Figure 14 and the tuning
#: ablation at the full profile).
ONE_FULL_SUBJECT = {"scale": NEURO_BENCH["scale"], "n_volumes": 288}

NEURO_SIZES = (1, 2, 4, 8, 12, 25)
CLUSTER_SIZES = (16, 32, 48, 64)

#: Fault-schedule seed for F16 (fixed so the checked-in ledger baseline
#: reproduces byte-for-byte).
F16_SEED = 16

#: The killed node reboots and rejoins this many simulated seconds
#: after the crash (an EC2 instance reboot).  This is the term that
#: separates the recovery classes: lineage recompute proceeds on the
#: survivors immediately, while Myria/SciDB hold hash-partitioned
#: state on every worker and must wait the reboot out before redoing
#: work.
F16_RESTART_AFTER_S = 18.0


def dataset_profiles(quick):
    """``(neuro, astro)`` dataset profiles of a run outside the table:
    the miniature ones with ``--quick``, else ``None`` (the benchmark
    profiles)."""
    if quick:
        return QUICK_NEURO, QUICK_ASTRO
    return None, None


#: One dimension of a figure's grid, declared under the trial argument
#: it sets.  ``key`` is the row column that labels a cell; ``values`` is
#: a tuple, each value the argument and its own label, or a dict from
#: label to argument (a labelled tuning dict, say).
Axis = namedtuple("Axis", "key values")


def _points(axis):
    """``(label, argument)`` per cell of one axis."""
    if isinstance(axis.values, dict):
        return list(axis.values.items())
    return [(value, value) for value in axis.values]


def _tuned(key, name, values):
    """An axis over one tuning keyword: each value labels the cell
    whose tuning dict sets ``name`` to it."""
    return Axis(key, {value: {name: value} for value in values})


def _partitions(*counts):
    """Figure 14's axis: Spark's input and group-by partition counts."""
    return Axis("partitions", {
        p: {"input_partitions": p, "group_partitions": p} for p in counts
    })


#: The three engines that run both pipelines end to end.
ENGINES = Axis("engine", ("dask", "myria", "spark"))
#: Dask is excluded to match the paper ("the implementation freezes once
#: deployed on a cluster ... we do not report performance numbers",
#: Section 4.4); override ``engine`` to include our working
#: implementation anyway.
ASTRO_ENGINES = Axis("engine", ("myria", "spark"))
STEP_SYSTEMS = Axis("system", ("dask", "myria", "spark", "scidb",
                               "tensorflow"))
INGEST_SYSTEMS = Axis("system", ("spark", "myria", "dask", "tensorflow",
                                 "scidb-1", "scidb-2"))
COADD_SYSTEMS = Axis("system", ("myria", "spark", "scidb"))
USE_CASES = Axis("use_case", ("neuro", "astro"))
PIPELINES = Axis("pipeline", ("neuro", "astro"))
MYRIA_WORKERS = _tuned("workers_per_node", "workers_per_node", (1, 2, 4, 8))
MYRIA_MODES = Axis("mode", ("pipelined", "materialized", "multiquery"))
F16_ENGINES = Axis("engine", ("spark", "dask", "myria", "scidb",
                              "tensorflow"))
INPUT_CACHING = _tuned("cached", "cache_input", (False, True))
SCIDB_ITERATION = Axis("variant", {"stock AQL": {"incremental": False},
                                   "incremental [34]": {"incremental": True}})
TF_CONVERSIONS = Axis("variant", {
    "stock TensorFlow": None,
    "free conversions": {"tensor_convert_bandwidth": 1e18},
})
SPARK_PARTITIONING = Axis("variant", {
    # Spark's HDFS-block default, against one partition per slot.
    "default partitions": {"input_partitions": None,
                           "group_partitions": None},
    "tuned partitions": None,
})


def normalized_per_unit(rows, unit_key):
    """Figures 10e/10f: runtime per unit, normalized to the smallest
    size (the paper's "ratios of each pipeline runtime to that obtained
    for one subject")."""
    engines = sorted({r["engine"] for r in rows})
    out = []
    for engine in engines:
        engine_rows = sorted(
            (r for r in rows if r["engine"] == engine), key=lambda r: r[unit_key]
        )
        base = engine_rows[0]
        base_per_unit = base["simulated_s"] / base[unit_key]
        for row in engine_rows:
            per_unit = row["simulated_s"] / row[unit_key]
            out.append(
                {
                    "engine": engine,
                    unit_key: row[unit_key],
                    "normalized": per_unit / base_per_unit,
                }
            )
    return out


def _with_ratio(variant, ratio):
    """A ``post`` step appending the row ``variant`` whose value is
    ``ratio`` of the two cells' ``simulated_s``."""
    def post(rows):
        first, second = (row["simulated_s"] for row in rows)
        return rows + [{"variant": variant,
                        "simulated_s": ratio(first, second)}]
    return post


def _table(rows):
    """The table the figure's one cell returned."""
    return rows[0]["rows"]


@dataclass(frozen=True)
class Figure:
    """One table or figure of the paper, as the harness runs it.

    ``trial`` names the registered trial each cell runs.  ``quick`` and
    ``full`` map each trial argument to its value at that profile, or to
    the :class:`Axis` the grid sweeps it over; ``fixed`` holds the
    arguments both profiles share.  A cell's row is its axis labels, in
    declaration order, then the trial's columns, and ``post`` maps the
    grid's rows to the figure's.  A figure with a ``base`` has no trial
    of its own: ``post`` maps the base figure's rows, which run and
    print first.

    ``series`` is ``(index, column[, value])`` for a pivoted grid
    (:func:`~repro.harness.report.print_series`); its index axis varies
    slowest, so cells run in the order the printed series reads them.
    Without it the rows print as one table, or, under a dict ``title``,
    one table per key of the dict ``post`` returns.  ``blame`` titles
    the critical-path blame table printed after the rows.  ``variants``
    marks the figures that take ``--optimize`` and ``--route auto``.
    """

    trial: str
    title: object
    quick: dict = field(default_factory=dict)
    full: dict = field(default_factory=dict)
    fixed: dict = field(default_factory=dict)
    post: object = None
    series: tuple = None
    blame: str = None
    base: str = None
    variants: bool = False

    def sizes(self, quick):
        """The trial arguments and axes of one profile."""
        if quick:
            return self.quick
        return self.full

    def show(self, rows, suffix=""):
        """Print ``rows`` as ``harness <id>`` does."""
        if isinstance(self.title, dict):
            for key, title in self.title.items():
                print_table(rows[key], title=title)
        elif self.series:
            print_series(rows, *self.series, title=self.title + suffix)
        else:
            print_table(rows, title=self.title + suffix)


FIGURES = {
    "table1": Figure(
        "table1", {"neuro": "Table 1 (neuroscience)",
                   "astro": "Table 1 (astronomy)"},
        fixed={"use_case": USE_CASES},
        post=lambda rows: {row["use_case"]: row["rows"] for row in rows},
    ),
    "fig10a": Figure("fig10a", "Figure 10a: neuro data sizes (GB)",
                     post=_table),
    "fig10b": Figure("fig10b", "Figure 10b: astro data sizes (GB)",
                     post=_table),
    "fig10c": Figure(
        "end_to_end", "Figure 10c: neuro end-to-end (simulated s)",
        quick={"engine": ENGINES, "count": Axis("subjects", (1, 2, 4)),
               "profile": QUICK_NEURO},
        full={"engine": ENGINES, "count": Axis("subjects", NEURO_SIZES),
              "profile": NEURO_BENCH},
        fixed={"pipeline": "neuro", "n_nodes": DEFAULT_NODES,
               "optimize": False},
        series=("subjects", "engine"), variants=True,
    ),
    "fig10d": Figure(
        "end_to_end", "Figure 10d: astro end-to-end (simulated s)",
        quick={"engine": ASTRO_ENGINES, "count": Axis("visits", (2, 4)),
               "profile": QUICK_ASTRO},
        full={"engine": ASTRO_ENGINES,
              "count": Axis("visits", (2, 4, 8, 12, 24)),
              "profile": ASTRO_BENCH},
        fixed={"pipeline": "astro", "n_nodes": DEFAULT_NODES,
               "optimize": False},
        series=("visits", "engine"), variants=True,
    ),
    "fig10e": Figure(
        None, "Figure 10e: normalized runtime per subject",
        post=partial(normalized_per_unit, unit_key="subjects"),
        series=("subjects", "engine", "normalized"), base="fig10c",
    ),
    "fig10f": Figure(
        None, "Figure 10f: normalized runtime per visit",
        post=partial(normalized_per_unit, unit_key="visits"),
        series=("visits", "engine", "normalized"), base="fig10d",
    ),
    "fig10g": Figure(
        "end_to_end", "Figure 10g: neuro runtime vs cluster size",
        quick={"engine": ENGINES, "n_nodes": Axis("nodes", (4, 8)),
               "count": 4, "profile": QUICK_NEURO},
        full={"engine": ENGINES, "n_nodes": Axis("nodes", CLUSTER_SIZES),
              "count": 25, "profile": NEURO_BENCH},
        fixed={"pipeline": "neuro"},
        series=("nodes", "engine"),
    ),
    "fig10h": Figure(
        "end_to_end", "Figure 10h: astro runtime vs cluster size",
        quick={"engine": ASTRO_ENGINES, "n_nodes": Axis("nodes", (4, 8)),
               "count": 4, "profile": QUICK_ASTRO},
        full={"engine": ASTRO_ENGINES,
              "n_nodes": Axis("nodes", CLUSTER_SIZES),
              "count": 24, "profile": ASTRO_BENCH},
        fixed={"pipeline": "astro"},
        series=("nodes", "engine"),
    ),
    "fig11": Figure(
        "step", "Figure 11: ingest time (simulated s, log y)",
        quick={"system": INGEST_SYSTEMS, "count": Axis("subjects", (1, 2)),
               "profile": QUICK_NEURO},
        full={"system": INGEST_SYSTEMS,
              "count": Axis("subjects", NEURO_SIZES),
              "profile": NEURO_BENCH},
        fixed={"fragment": "neuro_scan"},
        series=("subjects", "system"),
        blame="Figure 11 blame (critical path)",
    ),
    "fig12a": Figure(
        "step", "Figure 12a: filter step",
        quick={"system": STEP_SYSTEMS, "count": 2, "profile": QUICK_NEURO},
        full={"system": STEP_SYSTEMS, "count": 25, "profile": NEURO_BENCH},
        fixed={"fragment": "neuro_filter"},
    ),
    "fig12b": Figure(
        "step", "Figure 12b: mean step",
        quick={"system": STEP_SYSTEMS, "count": 2, "profile": QUICK_NEURO},
        full={"system": STEP_SYSTEMS, "count": 25, "profile": NEURO_BENCH},
        fixed={"fragment": "neuro_mean"},
    ),
    "fig12c": Figure(
        "step", "Figure 12c: denoise step",
        quick={"system": STEP_SYSTEMS, "count": 2, "profile": QUICK_NEURO},
        full={"system": STEP_SYSTEMS, "count": 25, "profile": NEURO_BENCH},
        fixed={"fragment": "neuro_denoise"},
    ),
    "fig12d": Figure(
        "step", "Figure 12d: co-addition step",
        quick={"system": COADD_SYSTEMS, "count": 4, "profile": QUICK_ASTRO},
        full={"system": COADD_SYSTEMS, "count": 24, "profile": ASTRO_BENCH},
        fixed={"fragment": "astro_coadd"},
    ),
    "fig13": Figure(
        "end_to_end", "Figure 13: Myria workers per node",
        quick={"tuning": MYRIA_WORKERS, "count": 2, "n_nodes": 4,
               "profile": QUICK_NEURO},
        full={"tuning": MYRIA_WORKERS, "count": 25, "n_nodes": 16,
              "profile": NEURO_BENCH},
        fixed={"pipeline": "neuro", "engine": "myria"},
    ),
    "fig14": Figure(
        "end_to_end", "Figure 14: Spark input partitions",
        quick={"tuning": _partitions(1, 4, 16), "profile": QUICK_NEURO},
        full={"tuning": _partitions(1, 2, 4, 8, 16, 32, 64, 97, 128, 192,
                                    256),
              "profile": ONE_FULL_SUBJECT},
        fixed={"pipeline": "neuro", "engine": "spark", "count": 1,
               "n_nodes": DEFAULT_NODES},
    ),
    "fig15": Figure(
        "fig15", "Figure 15: Myria memory management",
        quick={"count": Axis("visits", (2,)), "mode": MYRIA_MODES,
               "n_nodes": 4, "profile": QUICK_ASTRO},
        full={"count": Axis("visits", (2, 8, 24, 96)), "mode": MYRIA_MODES,
              "n_nodes": 16, "profile": ASTRO_BENCH},
        fixed={"chunks": 2},
        series=("visits", "mode"),
    ),
    "f16": Figure(
        "f16", "F16: recovery overhead, 1 of 16 nodes killed at 50% progress",
        quick={"engine": F16_ENGINES, "count": 2, "profile": QUICK_NEURO},
        full={"engine": F16_ENGINES, "count": 4, "profile": NEURO_BENCH},
        fixed={"n_nodes": DEFAULT_NODES,
               "restart_after_s": F16_RESTART_AFTER_S, "seed": F16_SEED},
        blame="F16 blame (critical path)",
    ),
    "opt": Figure(
        "optcell", "Optimizer: naive vs optimized per (pipeline, engine)",
        quick={"pipeline": PIPELINES,
               "engine": ENGINES, "count": 2,
               "profiles": {"neuro": QUICK_NEURO, "astro": QUICK_ASTRO}},
        full={"pipeline": PIPELINES,
              "engine": ENGINES, "count": 4,
              "profiles": {"neuro": NEURO_BENCH, "astro": ASTRO_BENCH}},
        fixed={"n_nodes": DEFAULT_NODES},
    ),
    "s531": Figure(
        "step", "Section 5.3.1: SciDB chunk size",
        quick={"prepare": _tuned("chunk", "chunk", (500, 1000)), "count": 4,
               "profile": QUICK_ASTRO},
        full={"prepare": _tuned("chunk", "chunk", (500, 1000, 1500, 2000)),
              "count": 24, "profile": ASTRO_BENCH},
        fixed={"fragment": "astro_coadd", "system": "scidb"},
    ),
    "s533": Figure(
        "end_to_end", "Section 5.3.3: Spark input caching",
        quick={"count": Axis("subjects", (2,)), "tuning": INPUT_CACHING,
               "n_nodes": 4, "profile": QUICK_NEURO},
        full={"count": Axis("subjects", (1, 4, 12, 25)),
              "tuning": INPUT_CACHING, "n_nodes": 16,
              "profile": NEURO_BENCH},
        fixed={"pipeline": "neuro", "engine": "spark"},
        series=("subjects", "cached"),
    ),
    "ablation": Figure(
        "step", "Ablation: SciDB incremental iteration [34]",
        quick={"run": SCIDB_ITERATION, "count": 4, "profile": QUICK_ASTRO},
        full={"run": SCIDB_ITERATION, "count": 24, "profile": ASTRO_BENCH},
        fixed={"fragment": "astro_coadd", "system": "scidb"},
        post=_with_ratio("speedup", lambda stock, incremental:
                         stock / incremental),
    ),
    # Section 6, "Data Formats": "An interesting area of future work is
    # to optimize away these format conversions."  How much of TF's
    # Figure 12b deficit the conversions explain.
    "ablation-tf": Figure(
        "step", "Ablation: TF format conversions (Section 6)",
        quick={"costs": TF_CONVERSIONS, "count": 2, "profile": QUICK_NEURO},
        full={"costs": TF_CONVERSIONS, "count": 4, "profile": NEURO_BENCH},
        fixed={"fragment": "neuro_mean", "system": "tensorflow"},
        post=_with_ratio("conversion share", lambda stock, free:
                         1 - free / stock),
    ),
    # Section 6, "System Tuning": "none of them performed best with the
    # default settings" -- the under-utilization the paper observed when
    # "Spark creates only 4 partitions" (Section 5.3.1).
    "ablation-tuning": Figure(
        "end_to_end", "Ablation: Spark default vs tuned partitions",
        quick={"tuning": SPARK_PARTITIONING, "n_nodes": 8,
               "profile": {"scale": 20, "n_volumes": 48}},
        full={"tuning": SPARK_PARTITIONING, "n_nodes": 16,
              "profile": ONE_FULL_SUBJECT},
        fixed={"pipeline": "neuro", "engine": "spark", "count": 1},
        post=_with_ratio("speedup", lambda default, tuned: default / tuned),
    ),
}


def grid(name, quick, **overrides):
    """Run figure ``name``'s cells at its quick or full sizes; returns
    its rows, after ``post``.

    ``overrides`` replace declared arguments by name: an axis's values,
    or a plain argument's value.  A name the figure does not declare
    raises ``TypeError``, as an unknown keyword would.  A derived figure
    passes them to its base.
    """
    fig = FIGURES[name]
    if fig.base:
        return fig.post(grid(fig.base, quick, **overrides))
    args = dict(fig.fixed, **fig.sizes(quick))
    for arg, value in overrides.items():
        if arg not in args:
            raise TypeError(f"figure {name!r} has no argument {arg!r}")
        if isinstance(args[arg], Axis):
            value = args[arg]._replace(values=value)
        args[arg] = value
    axes = [(arg, a) for arg, a in args.items() if isinstance(a, Axis)]
    labels = [axis.key for _arg, axis in axes]
    if fig.series:
        axes.sort(key=lambda item: item[1].key != fig.series[0])
    cells = list(itertools.product(*(_points(a) for _arg, a in axes)))
    specs = [
        TrialSpec(fig.trial, dict(args, **{
            arg: value for (arg, _axis), (_label, value) in zip(axes, cell)
        }))
        for cell in cells
    ]
    rows = []
    for cell, row in zip(cells, grid_rows(specs)):
        label = {axis.key: lbl for (_arg, axis), (lbl, _v) in zip(axes, cell)}
        rows.append(dict({key: label[key] for key in labels}, **row))
    return fig.post(rows) if fig.post else rows


def run_figure(name, quick, optimize=False, route=None):
    """Run figure ``name`` at its quick or full sizes, print it and
    return its rows.

    ``optimize`` passes every plan through the optimizer and ``route``
    (``"auto"``) takes each cell's engine from the router; both are for
    ``variants`` figures only.  A ``base`` figure runs (and prints)
    first, unchanged.  A figure with ``blame`` collects its runs'
    snapshots and prints where their critical paths went.
    """
    fig = FIGURES[name]
    overrides = {}
    suffix = ""
    if optimize:
        overrides["optimize"] = True
        suffix = " [optimized]"
    if route is not None:
        overrides["engine"] = (route,)
    sink = collecting_snapshots() if fig.blame else contextlib.nullcontext()
    with sink as collected:
        if fig.base:
            rows = fig.post(run_figure(fig.base, quick))
        else:
            rows = grid(name, quick, **overrides)
    fig.show(rows, suffix)
    if fig.blame:
        print_snapshot_blame(collected.snapshots, title=fig.blame)
    return rows
