"""One declaration per figure: the table every reader of a figure takes.

``FIGURES`` maps each experiment id, in ``harness --list`` order, to a
:class:`Figure`: the :mod:`~repro.harness.experiments` entry point it
calls, the keyword sizes of its ``quick`` and ``full`` profiles (the
only place a figure's sizes are written), and how its rows print.
:func:`run_figure` runs one.  ``harness <id>``, ``harness ledger``,
``harness trace <id>`` and the claims in ``benchmarks/test_claims.py``
all go through it, so they agree on what a figure is.
"""

import contextlib
from dataclasses import dataclass, field

from repro.harness import experiments as E
from repro.harness.parallel import collecting_snapshots
from repro.harness.report import (
    print_series,
    print_snapshot_blame,
    print_table,
)

#: Miniature dataset profiles of ``--quick``.  A full run passes no
#: profile, so the entry points use ``runner.NEURO_BENCH`` /
#: ``ASTRO_BENCH``.
QUICK_NEURO = {"scale": 20, "n_volumes": 24}
QUICK_ASTRO = {"scale": 100, "n_sensors": 6}

NEURO_SIZES = (1, 2, 4, 8, 12, 25)
CLUSTER_SIZES = (16, 32, 48, 64)


def dataset_profiles(quick):
    """``(neuro, astro)`` dataset profiles of a run outside the table:
    the miniature ones with ``--quick``, else ``None`` (the benchmark
    profiles)."""
    if quick:
        return QUICK_NEURO, QUICK_ASTRO
    return None, None


@dataclass(frozen=True)
class Figure:
    """One table or figure of the paper, as the harness runs it.

    ``series`` is ``(index, column[, value])`` for a pivoted grid
    (:func:`~repro.harness.report.print_series`); without it the rows
    print as one table, or, under a dict ``title``, one table per key of
    the dict the entry point returns.  ``blame`` titles the
    critical-path blame table printed after the rows.  ``base`` names
    the figure whose rows this one is derived from; they run and print
    first.  ``variants`` marks the figures that take ``--optimize`` and
    ``--route auto``.
    """

    fn: object
    title: object
    quick: dict = field(default_factory=dict)
    full: dict = field(default_factory=dict)
    series: tuple = None
    blame: str = None
    base: str = None
    variants: bool = False

    def sizes(self, quick):
        """The entry point's keyword sizes at one profile."""
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
    "table1": Figure(E.table1, {"neuro": "Table 1 (neuroscience)",
                                "astro": "Table 1 (astronomy)"}),
    "fig10a": Figure(E.fig10a_sizes, "Figure 10a: neuro data sizes (GB)"),
    "fig10b": Figure(E.fig10b_sizes, "Figure 10b: astro data sizes (GB)"),
    "fig10c": Figure(
        E.fig10c_neuro_end_to_end,
        "Figure 10c: neuro end-to-end (simulated s)",
        quick={"subject_counts": (1, 2, 4), "profile": QUICK_NEURO},
        full={"subject_counts": NEURO_SIZES},
        series=("subjects", "engine"), variants=True,
    ),
    "fig10d": Figure(
        E.fig10d_astro_end_to_end,
        "Figure 10d: astro end-to-end (simulated s)",
        quick={"visit_counts": (2, 4), "profile": QUICK_ASTRO},
        full={"visit_counts": (2, 4, 8, 12, 24)},
        series=("visits", "engine"), variants=True,
    ),
    "fig10e": Figure(
        E.fig10e_neuro_normalized,
        "Figure 10e: normalized runtime per subject",
        series=("subjects", "engine", "normalized"), base="fig10c",
    ),
    "fig10f": Figure(
        E.fig10f_astro_normalized,
        "Figure 10f: normalized runtime per visit",
        series=("visits", "engine", "normalized"), base="fig10d",
    ),
    "fig10g": Figure(
        E.fig10g_neuro_speedup, "Figure 10g: neuro runtime vs cluster size",
        quick={"node_counts": (4, 8), "n_subjects": 4,
               "profile": QUICK_NEURO},
        full={"node_counts": CLUSTER_SIZES, "n_subjects": 25},
        series=("nodes", "engine"),
    ),
    "fig10h": Figure(
        E.fig10h_astro_speedup, "Figure 10h: astro runtime vs cluster size",
        quick={"node_counts": (4, 8), "n_visits": 4, "profile": QUICK_ASTRO},
        full={"node_counts": CLUSTER_SIZES, "n_visits": 24},
        series=("nodes", "engine"),
    ),
    "fig11": Figure(
        E.fig11_ingest, "Figure 11: ingest time (simulated s, log y)",
        quick={"subject_counts": (1, 2), "profile": QUICK_NEURO},
        full={"subject_counts": NEURO_SIZES},
        series=("subjects", "system"),
        blame="Figure 11 blame (critical path)",
    ),
    "fig12a": Figure(
        E.fig12a_filter, "Figure 12a: filter step",
        quick={"n_subjects": 2, "profile": QUICK_NEURO},
        full={"n_subjects": 25},
    ),
    "fig12b": Figure(
        E.fig12b_mean, "Figure 12b: mean step",
        quick={"n_subjects": 2, "profile": QUICK_NEURO},
        full={"n_subjects": 25},
    ),
    "fig12c": Figure(
        E.fig12c_denoise, "Figure 12c: denoise step",
        quick={"n_subjects": 2, "profile": QUICK_NEURO},
        full={"n_subjects": 25},
    ),
    "fig12d": Figure(
        E.fig12d_coadd, "Figure 12d: co-addition step",
        quick={"n_visits": 4, "profile": QUICK_ASTRO},
        full={"n_visits": 24},
    ),
    "fig13": Figure(
        E.fig13_myria_workers, "Figure 13: Myria workers per node",
        quick={"worker_counts": (1, 2, 4, 8), "n_subjects": 2, "n_nodes": 4,
               "profile": QUICK_NEURO},
        full={"worker_counts": (1, 2, 4, 8), "n_subjects": 25, "n_nodes": 16},
    ),
    "fig14": Figure(
        E.fig14_spark_partitions, "Figure 14: Spark input partitions",
        quick={"partition_counts": (1, 4, 16), "profile": QUICK_NEURO},
        full={"partition_counts": (1, 2, 4, 8, 16, 32, 64, 97, 128, 192,
                                   256)},
    ),
    "fig15": Figure(
        E.fig15_myria_memory, "Figure 15: Myria memory management",
        quick={"visit_counts": (2,), "n_nodes": 4, "profile": QUICK_ASTRO},
        full={"visit_counts": (2, 8, 24, 96), "n_nodes": 16},
        series=("visits", "mode"),
    ),
    "f16": Figure(
        E.f16_recovery,
        "F16: recovery overhead, 1 of 16 nodes killed at 50% progress",
        quick={"n_subjects": 2, "profile": QUICK_NEURO},
        full={"n_subjects": 4},
        blame="F16 blame (critical path)",
    ),
    "opt": Figure(
        E.opt_comparison,
        "Optimizer: naive vs optimized per (pipeline, engine)",
        quick={"n_subjects": 2, "n_visits": 2, "neuro_profile": QUICK_NEURO,
               "astro_profile": QUICK_ASTRO},
        full={"n_subjects": 4, "n_visits": 4},
    ),
    "s531": Figure(
        E.s531_scidb_chunks, "Section 5.3.1: SciDB chunk size",
        quick={"chunk_sizes": (500, 1000), "n_visits": 4,
               "profile": QUICK_ASTRO},
        full={"chunk_sizes": (500, 1000, 1500, 2000), "n_visits": 24},
    ),
    "s533": Figure(
        E.s533_spark_caching, "Section 5.3.3: Spark input caching",
        quick={"subject_counts": (2,), "n_nodes": 4, "profile": QUICK_NEURO},
        full={"subject_counts": (1, 4, 12, 25), "n_nodes": 16},
        series=("subjects", "cached"),
    ),
    "ablation": Figure(
        E.ablation_scidb_incremental,
        "Ablation: SciDB incremental iteration [34]",
        quick={"n_visits": 4, "profile": QUICK_ASTRO},
        full={"n_visits": 24},
    ),
    "ablation-tf": Figure(
        E.ablation_tf_format_conversion,
        "Ablation: TF format conversions (Section 6)",
        quick={"n_subjects": 2, "profile": QUICK_NEURO},
        full={"n_subjects": 4},
    ),
    "ablation-tuning": Figure(
        E.ablation_spark_self_tuning,
        "Ablation: Spark default vs tuned partitions",
        quick={"profile": {"scale": 20, "n_volumes": 48}, "n_nodes": 8},
        full={"n_nodes": 16},
    ),
}


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
    kwargs = dict(fig.sizes(quick))
    suffix = ""
    if optimize:
        kwargs["optimize"] = True
        suffix = " [optimized]"
    if route is not None:
        kwargs["engines"] = (route,)
    if fig.base:
        kwargs["rows"] = run_figure(fig.base, quick)
    sink = collecting_snapshots() if fig.blame else contextlib.nullcontext()
    with sink as collected:
        rows = fig.fn(**kwargs)
    fig.show(rows, suffix)
    if fig.blame:
        print_snapshot_blame(collected.snapshots, title=fig.blame)
    return rows
