"""The benchmark's workloads, built from the program's public functions.

A workload is a list of *units*; a unit is one call the benchmark times.
On the serial workloads a unit is one trial, on ``grid-pool`` it is one
pooled pass (``cold``) or one replay of the whole grid from the trial
cache (``warm-NNN``).  Why each workload exists is recorded in
``BENCHMARK.json`` and ``bench/README.md``.

``neuro-grid`` and ``astro-grid`` run benchmark-registered trials whose
bodies restate the harness's ``_neuro_end_to_end`` / ``_astro_end_to_end``
from public pieces, so that the cohort can be seeded and every call into
a layer can carry a span.  At seed 0 the cohort is the figures' own and
the restatement is pinned to the harness's tuning defaults by the ledger
check in ``run.py``.
"""

import os
import random
import zlib
from collections import namedtuple

import repro.harness.experiments as E
from repro.data import generate_subject, generate_visit
from repro.harness.cache import TrialCache
from repro.harness.parallel import TrialSpec, run_grid, shutdown_pool, trial
from repro.harness.runner import (
    Stopwatch,
    astro_visits,
    fresh_engine,
    neuro_subjects,
)
from repro.pipelines.astro.staging import stage_visits
from repro.pipelines.neuro.staging import stage_subjects
from repro.plan import (
    astro_plan,
    choose_engine,
    lower,
    neuro_plan,
    optimize_for,
)
from repro.plan.route import astro_profile

from spans import span

#: name: the unit's stable id; trials: trials it computes (0 for a
#: replay); run: ``() -> list of row dicts``.
Unit = namedtuple("Unit", "name trials run")

#: Not a workload of its own: ``grid-pool``'s trials run one by one in
#: process, the bytes the pooled and replayed passes must reproduce and
#: the serial times ``harness.pool_speedup`` is measured against.
SERIAL_REFERENCE = "grid-serial"

N_NODES = 16
ENGINES = ("dask", "myria", "spark")
#: Fig 10c/10d quick profiles (``harness --quick``), so seed-0 cells can
#: be checked against ``benchmarks/ledger/fig10c-quick.json``.
NEURO_PROFILE = {"scale": 20, "n_volumes": 24}
ASTRO_PROFILE = {"scale": 100, "n_sensors": 6}
#: Paper-scale task counts over tiny real arrays: the simulator, not the
#: kernels, does the work.
STEPS_PROFILE = {"scale": 40, "n_volumes": 144}

#: Sizes per mode.  ``full`` is what every timed run uses; ``smoke`` is
#: the smallest cell of each workload, for the tier-1 smoke test.
SIZES = {
    "full": {"neuro": (1, 2), "astro": (2, 4), "astro_extra": 4,
             "steps_subjects": 8, "steps_profile": STEPS_PROFILE,
             "sweeps": 300, "cells": None},
    "smoke": {"neuro": (1,), "astro": (2,), "astro_extra": None,
              "steps_subjects": 1, "steps_profile": NEURO_PROFILE,
              "sweeps": 3, "cells": 1},
}

POOL_JOBS = min(2, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Seeded cohorts
# ----------------------------------------------------------------------

def _cohort_seed(seed, kind, index):
    return zlib.crc32(f"bench/{seed}/{kind}/{index}".encode())


def neuro_cohort(count, profile, seed):
    """Seed 0: the figures' own subjects; otherwise a fresh cohort.
    Subject ``i`` is the same in every cell of one seed, so the grid
    keeps its shared work."""
    if seed == 0:
        return neuro_subjects(count, **profile)
    return [
        generate_subject(f"subj{i:03d}", seed=_cohort_seed(seed, "neuro", i),
                         **profile)
        for i in range(count)
    ]


def astro_cohort(count, profile, seed):
    """Seed 0: the figures' own visits; otherwise a fresh cohort."""
    if seed == 0:
        return astro_visits(count, **profile)
    return [
        generate_visit(v, seed=_cohort_seed(seed, "astro", v), **profile)
        for v in range(count)
    ]


# ----------------------------------------------------------------------
# Benchmark-owned trial bodies
# ----------------------------------------------------------------------

def _tuning(kind, cluster, cache_input):
    """The harness's end-to-end tuning defaults, restated."""
    if kind == "spark":
        tuning = {"input_partitions": cluster.spec.total_slots}
        if cache_input:
            tuning["cache_input"] = True
        return tuning
    return {"source": "s3"} if kind == "myria" else {}


@trial("bench_neuro")
def bench_neuro(kind, count, n_nodes, profile, seed):
    with span("data.generate"):
        subjects = neuro_cohort(count, profile, seed)
    cluster, engine = fresh_engine(kind, n_nodes=n_nodes)
    with span("pipelines.stage"):
        stage_subjects(cluster.object_store, subjects)
    watch = Stopwatch(cluster)
    with span("plan.build"):
        plan = neuro_plan()
    with span("engines.lower"):
        lowered = lower(plan, kind, engine)
    with span("engines.run"):
        results = lowered.run(subjects, **_tuning(kind, cluster, True))
    return {
        "cohort": f"neuro/{count}", "engine": kind, "subjects": count,
        "simulated_s": watch.lap(), "digest": E.result_digest(results),
        "real_bytes": sum(s.data.array.nbytes for s in subjects),
    }


@trial("bench_astro")
def bench_astro(kind, count, n_nodes, profile, seed, optimize=False):
    with span("data.generate"):
        visits = astro_cohort(count, profile, seed)
    routed = kind == "auto"
    if routed:
        with span("plan.route"):
            kind = choose_engine(
                astro_plan(), astro_profile(visits), n_nodes=n_nodes
            ).engine
    cluster, engine = fresh_engine(kind, n_nodes=n_nodes)
    with span("pipelines.stage"):
        stage_visits(cluster.object_store, visits)
    watch = Stopwatch(cluster)
    with span("plan.build"):
        plan = astro_plan()
    rewrites = 0
    if optimize:
        with span("plan.optimize"):
            opt = optimize_for(plan, kind, profile=astro_profile(visits))
        plan, rewrites = opt.plan, len(opt.firings)
    with span("engines.lower"):
        lowered = lower(plan, kind, engine)
    with span("engines.run"):
        results = lowered.run(visits, **_tuning(kind, cluster, False))
    return {
        "cohort": f"astro/{count}", "engine": kind, "visits": count,
        "routed": routed, "rewrites": rewrites,
        "simulated_s": watch.lap(), "digest": E.result_digest(results),
        "real_bytes": sum(
            e.flux.nbytes + e.variance.nbytes + e.mask.nbytes
            for v in visits for e in v.exposures
        ),
    }


# ----------------------------------------------------------------------
# Trial lists
# ----------------------------------------------------------------------

def _neuro_specs(seed, counts):
    return [
        (f"neuro/{kind}/{count}",
         TrialSpec("bench_neuro",
                   {"kind": kind, "count": count, "n_nodes": N_NODES,
                    "profile": dict(NEURO_PROFILE), "seed": seed},
                   engine=kind))
        for count in counts for kind in ENGINES
    ]


def _astro_spec(seed, kind, count, optimize=False):
    kwargs = {"kind": kind, "count": count, "n_nodes": N_NODES,
              "profile": dict(ASTRO_PROFILE), "seed": seed}
    if optimize:
        kwargs["optimize"] = True
    name = f"astro/{kind}/{count}" + ("/opt" if optimize else "")
    return name, TrialSpec("bench_astro", kwargs, engine=kind)


def _astro_specs(seed, counts, extra_at=None):
    """Naive cells, plus at ``extra_at`` visits one optimized cell per
    engine and one router-chosen cell."""
    specs = [_astro_spec(seed, kind, count)
             for count in counts for kind in ENGINES]
    if extra_at is not None:
        specs += [_astro_spec(seed, kind, extra_at, optimize=True)
                  for kind in ENGINES]
        specs.append(_astro_spec(seed, "auto", extra_at))
    return specs


def _trial_units(named_specs):
    return [
        Unit(name, 1,
             lambda spec=spec: [p["row"] for p in
                                run_grid([spec], jobs=1, cache=None)])
        for name, spec in named_specs
    ]


def _steps_units(n_subjects, profile):
    figures = (
        ("fig11", E.fig11_ingest, {"subject_counts": (n_subjects,)},
         ("spark", "myria", "dask", "tensorflow", "scidb-1", "scidb-2")),
        ("fig12a", E.fig12a_filter, {"n_subjects": n_subjects},
         ("dask", "myria", "spark", "scidb", "tensorflow")),
        ("fig12b", E.fig12b_mean, {"n_subjects": n_subjects},
         ("dask", "myria", "spark", "scidb", "tensorflow")),
    )
    return [
        Unit(f"{figure}/{system}", 1,
             lambda fn=fn, kwargs=kwargs, system=system:
             fn(profile=dict(profile), systems=(system,), **kwargs))
        for figure, fn, kwargs, systems in figures for system in systems
    ]


def _pool_units(named_specs, sweeps, cache):
    specs = [spec for _name, spec in named_specs]

    def sweep():
        return [p["row"] for p in
                run_grid(specs, jobs=POOL_JOBS, cache=cache)]

    def cold():
        # Shutdown belongs to the unit: it is what reaps the workers,
        # so their CPU time and peak memory become readable.
        try:
            return sweep()
        finally:
            shutdown_pool()

    return [Unit("cold", len(specs), cold)] + [
        Unit(f"warm-{i:03d}", 0, sweep) for i in range(sweeps)
    ]


def build(workload, seed, mode, cache_dir):
    """Units of one pass of ``workload`` and the trial cache they share
    (``None`` off ``grid-pool``).  ``cache_dir`` must be empty."""
    size = SIZES[mode]
    cells = size["cells"]
    rng = random.Random(seed)
    cache = None
    if workload in ("grid-pool", SERIAL_REFERENCE):
        # The 1-subject neuro cells and the naive astro cells: the
        # pool's costs do not depend on how much kernel work it moves.
        named = (_neuro_specs(seed, size["neuro"][:1])[:cells]
                 + _astro_specs(seed, size["astro"])[:cells])
        if seed:
            rng.shuffle(named)
        if workload == SERIAL_REFERENCE:
            return _trial_units(named), None
        cache = TrialCache(cache_dir)
        return _pool_units(named, size["sweeps"], cache), cache
    if workload == "neuro-grid":
        units = _trial_units(_neuro_specs(seed, size["neuro"]))
    elif workload == "astro-grid":
        units = _trial_units(
            _astro_specs(seed, size["astro"], size["astro_extra"])
        )
    elif workload == "steps-sim":
        units = _steps_units(size["steps_subjects"], size["steps_profile"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    units = units[:cells]
    if seed:
        rng.shuffle(units)
    return units, cache
