"""The measured op owns its window, in every step-figure cell.

Figures 11 and 12a-d time one logical op per (figure, system) cell.
For each of the 24 cells at a tiny profile: every task record and
coordinator charge that starts inside the stopwatch window carries an
explicit ``op``; that op is the one the figure's plan fragment measures
(the shuffle, broadcast and scan work the op causes included) or an
explicit ``@overhead``; and the critical-path fold gives the measured
op the largest share of the window.  A step kernel that is not stamped
with its logical op (a private copy in the harness, say) fails here.
"""

from collections import defaultdict

import pytest

from repro.harness import experiments as E
from repro.harness.parallel import TRIAL_FNS
from repro.harness.runner import Stopwatch
from repro.obs import compute_critical_path, resolve_segment_op
from repro.plan.ir import PSEUDO_OVERHEAD

TINY_NEURO = {"scale": 20, "n_volumes": 12}
TINY_ASTRO = {"scale": 100, "n_sensors": 4}

_NEURO_SYSTEMS = ("dask", "myria", "spark", "scidb", "tensorflow")

#: figure -> (measured op, trial kwargs, systems).
FIGURES = {
    "fig11": ("neuro/volumes", {"count": 1, "profile": TINY_NEURO},
              tuple(E.INGEST_SYSTEMS)),
    "fig12a": ("neuro/b0", {"n_subjects": 1, "profile": TINY_NEURO},
               _NEURO_SYSTEMS),
    "fig12b": ("neuro/mean_b0", {"n_subjects": 1, "profile": TINY_NEURO},
               _NEURO_SYSTEMS),
    "fig12c": ("neuro/denoise", {"n_subjects": 1, "profile": TINY_NEURO},
               _NEURO_SYSTEMS),
    "fig12d": ("astro/coadd", {"n_visits": 2, "profile": TINY_ASTRO},
               ("myria", "spark", "scidb")),
}

CELLS = [
    (figure, system)
    for figure, (_op, _kwargs, systems) in FIGURES.items()
    for system in systems
]

#: Ops that ride in a window next to the measured one, each a known
#: wart rather than a stamp gone missing.  Dask builds Figure 8's mean
#: and mask as one delayed chain, and fig 12b has always timed the chain
#: (EXPERIMENTS.md, "Figure 12b"); timing the mean node alone would move
#: Dask's row from 2.86 s to 0.22 s at the quick profile.
RIDERS = {("fig12b", "dask"): {"neuro/otsu"}}


def _run_cell(figure, system, monkeypatch):
    """Run one cell in process; returns ``(cluster, window_start)``."""
    windows = []

    class RecordingStopwatch(Stopwatch):
        def __init__(self, cluster):
            super().__init__(cluster)
            windows.append((cluster, cluster.now))

    monkeypatch.setattr(E, "Stopwatch", RecordingStopwatch)
    _op, kwargs, _systems = FIGURES[figure]
    row = TRIAL_FNS[figure](system=system, **kwargs)
    (cluster, start), = windows
    assert row["simulated_s"] == pytest.approx(cluster.now - start)
    return cluster, start


def test_the_24_cells_are_the_figures_defaults():
    import inspect

    assert len(CELLS) == 24
    for figure, fn in (("fig11", E.fig11_ingest), ("fig12a", E.fig12a_filter),
                       ("fig12b", E.fig12b_mean), ("fig12c", E.fig12c_denoise),
                       ("fig12d", E.fig12d_coadd)):
        default = inspect.signature(fn).parameters["systems"].default
        assert set(default) == set(FIGURES[figure][2])


@pytest.mark.parametrize("figure,system", CELLS,
                         ids=[f"{f}-{s}" for f, s in CELLS])
def test_measured_op_owns_its_window(figure, system, monkeypatch):
    measured = FIGURES[figure][0]
    allowed = {measured, PSEUDO_OVERHEAD} | RIDERS.get((figure, system), set())
    cluster, start = _run_cell(figure, system, monkeypatch)

    in_window = [r for r in cluster.obs.task_records if r.start >= start]
    assert in_window, "the window ran nothing"
    for record in in_window:
        assert record.op is not None, f"{record!r} carries no op"
        assert record.op in allowed, (
            f"{record!r} is stamped {record.op!r}, not {measured!r}"
        )

    path = compute_critical_path(cluster)
    share = defaultdict(float)
    for segment in path.segments:
        if segment.start >= start - 1e-9:
            op = resolve_segment_op(segment, path.record_for(segment))
            share[op] += segment.duration
    assert sum(share.values()) == pytest.approx(cluster.now - start)
    if (figure, system) not in RIDERS:
        assert max(share, key=share.get) == measured, dict(share)
    assert share[measured] > 0
