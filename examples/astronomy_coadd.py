#!/usr/bin/env python
"""Astronomy workload study: co-addition across engines and tunings.

Walks the LSST-style pipeline of the paper's Section 3.2 on synthetic
telescope visits:

1. Generate dithered visits over a fixed star field, with cosmic rays.
2. Run the reference pipeline (pre-process, patch, co-add, detect).
3. Run it on miniSpark and miniMyria and verify identical coadds.
4. Show the SciDB chunk-size tuning effect (Section 5.3.1) and the
   incremental-iteration ablation (Section 5.2.4) on Step 3-A.

Run with::

    python examples/astronomy_coadd.py
"""

import numpy as np

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.data import generate_visit
from repro.engines.myria import MyriaConnection
from repro.engines.scidb import SciDBConnection
from repro.engines.spark import SparkContext
from repro.pipelines.astro import run_reference
from repro.pipelines.astro.staging import stage_visits
from repro.plan import astro_plan, lower

N_VISITS = 12
N_SENSORS = 6
SCALE = 60


def main():
    print(f"Generating {N_VISITS} dithered visits"
          f" ({N_SENSORS} sensors each, 1/{SCALE} resolution)...")
    visits = [
        generate_visit(v, scale=SCALE, n_sensors=N_SENSORS)
        for v in range(N_VISITS)
    ]

    print("\nReference pipeline (single process)...")
    ref_coadds, ref_sources = run_reference(visits)
    n_sources = sum(len(s) for s in ref_sources.values())
    print(f"  {len(ref_coadds)} sky patches co-added,"
          f" {n_sources} sources detected")
    brightest = max(
        (src for srcs in ref_sources.values() for src in srcs),
        key=lambda s: s.flux,
    )
    print(f"  brightest source: flux {brightest.flux:.0f}"
          f" across {brightest.n_pixels} pixels")

    print("\nminiSpark (4 nodes)...")
    cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    sc = SparkContext(cluster)
    stage_visits(cluster.object_store, visits)
    coadds, sources = lower(astro_plan(), "spark", sc).run(
        visits, input_partitions=32
    )
    ok = all(
        np.allclose(np.nan_to_num(coadds[p].array),
                    np.nan_to_num(ref_coadds[p].array), atol=1e-6)
        for p in ref_coadds
    )
    print(f"  simulated {cluster.now:.1f} s, coadds match reference: {ok}")

    print("\nminiMyria (4 nodes, materialized execution)...")
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
    )
    conn = MyriaConnection(cluster)
    stage_visits(cluster.object_store, visits)
    coadds, sources = lower(astro_plan(), "myria", conn).run(
        visits, mode="materialized", source="s3"
    )
    ok = all(
        np.allclose(np.nan_to_num(coadds[p].array),
                    np.nan_to_num(ref_coadds[p].array), atol=1e-6)
        for p in ref_coadds
    )
    print(f"  simulated {cluster.now:.1f} s, coadds match reference: {ok}")

    print("\nSciDB chunk-size tuning on Step 3-A (Section 5.3.1):")
    for chunk in (500, 1000, 2000):
        cluster = SimulatedCluster(
            ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
        )
        sdb = SciDBConnection(cluster)
        # The step protocol of Figure 12d: ingest untimed, time the op.
        lowered = lower(astro_plan(), "scidb", sdb)
        lowered.prepare("coadd", visits, chunk=chunk)
        start = cluster.now
        lowered.run_op("coadd")
        print(f"  chunk [{chunk}x{chunk}]: {cluster.now - start:8.1f} s")

    print("\nIncremental-iteration ablation on Step 3-A (Section 5.2.4):")
    timings = {}
    for incremental in (False, True):
        cluster = SimulatedCluster(
            ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
        )
        sdb = SciDBConnection(cluster)
        lowered = lower(astro_plan(), "scidb", sdb)
        lowered.prepare("coadd", visits)
        start = cluster.now
        lowered.run_op("coadd", incremental=incremental)
        timings[incremental] = cluster.now - start
        label = "incremental [34]" if incremental else "stock AQL"
        print(f"  {label:<18}: {timings[incremental]:8.1f} s")
    print(f"  speedup: {timings[False] / timings[True]:.1f}x"
          f" (paper reports ~6x)")


if __name__ == "__main__":
    main()
