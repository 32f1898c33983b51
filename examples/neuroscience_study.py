#!/usr/bin/env python
"""Neuroscience workload study: all five engines on one subject.

Reproduces the qualitative story of the paper's Sections 4 and 5.2 on a
small scale: the UDF-friendly engines (Spark, Myria, Dask) run the whole
pipeline; SciDB covers segmentation and stream()-based denoising;
TensorFlow covers a rewritten segmentation and convolution denoising.
For each engine the script reports which steps ran, whether outputs
match the reference, and the simulated step timings.

Run with::

    python examples/neuroscience_study.py
"""

import numpy as np

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.data import generate_subject
from repro.engines.dask import DaskClient
from repro.engines.myria import MyriaConnection
from repro.engines.scidb import SciDBConnection
from repro.engines.spark import SparkContext
from repro.engines.tensorflow import Session as TfSession
from repro.pipelines.neuro import run_reference
from repro.pipelines.neuro.staging import stage_subjects
from repro.plan import lower, neuro_plan

N_NODES = 4
SCALE = 12
N_VOLUMES = 24


def banner(text):
    print(f"\n=== {text} " + "=" * max(0, 60 - len(text)))


def main():
    subject = generate_subject("study", scale=SCALE, n_volumes=N_VOLUMES)
    ref_mask, ref_denoised, ref_fa = run_reference(subject)
    print(f"subject: real {subject.data.array.shape},"
          f" nominal {subject.data.nominal_shape}")
    plan = neuro_plan()  # one logical plan, lowered onto every engine

    results = []

    banner("Spark (full pipeline)")
    cluster = SimulatedCluster(ClusterSpec(n_nodes=N_NODES))
    sc = SparkContext(cluster)
    stage_subjects(cluster.object_store, [subject])
    _masks, fa = lower(plan, "spark", sc).run([subject], input_partitions=16)
    ok = np.allclose(fa["study"].array, ref_fa, atol=1e-10)
    results.append(("Spark", "full", cluster.now, ok))
    print(f"simulated {cluster.now:.1f} s, FA matches reference: {ok}")

    banner("Myria (full pipeline, MyriaL + Python UDFs)")
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=N_NODES, workers_per_node=4, slots_per_worker=1)
    )
    conn = MyriaConnection(cluster)
    stage_subjects(cluster.object_store, [subject])
    _masks, fa = lower(plan, "myria", conn).run([subject], source="s3")
    ok = np.allclose(fa["study"].array, ref_fa, atol=1e-10)
    results.append(("Myria", "full", cluster.now, ok))
    print(f"simulated {cluster.now:.1f} s, FA matches reference: {ok}")

    banner("Dask (full pipeline, delayed graphs)")
    cluster = SimulatedCluster(ClusterSpec(n_nodes=N_NODES))
    client = DaskClient(cluster)
    stage_subjects(cluster.object_store, [subject])
    _masks, fa = lower(plan, "dask", client).run([subject])
    ok = np.allclose(fa["study"].array, ref_fa, atol=1e-10)
    results.append(("Dask", "full", cluster.now, ok))
    print(f"simulated {cluster.now:.1f} s, FA matches reference: {ok},"
          f" steals: {client.steal_count}")

    banner("SciDB (segmentation + stream() denoise; fitting NA)")
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=N_NODES, workers_per_node=4, slots_per_worker=1)
    )
    sdb = SciDBConnection(cluster)
    lowered = lower(plan, "scidb", sdb)
    mask, denoised = lowered.run(subject, ingest_method="aio")
    ok = np.array_equal(mask, ref_mask)
    results.append(("SciDB", "partial", cluster.now, ok))
    print(f"simulated {cluster.now:.1f} s, mask matches reference: {ok}")
    try:
        lowered.fit_step()
    except NotImplementedError as exc:
        print(f"model fitting: NA ({exc})")

    banner("TensorFlow (rewritten segmentation + conv denoise; fitting NA)")
    cluster = SimulatedCluster(ClusterSpec(n_nodes=N_NODES))
    session = TfSession(cluster)
    lowered = lower(plan, "tensorflow", session)
    mask, denoised = lowered.run(subject)
    overlap = (mask & ref_mask).sum() / ref_mask.sum()
    results.append(("TensorFlow", "partial", cluster.now, overlap > 0.8))
    print(f"simulated {cluster.now:.1f} s,"
          f" simplified mask overlap with reference: {overlap:.0%}")
    try:
        lowered.fit_step()
    except NotImplementedError as exc:
        print(f"model fitting: NA ({exc})")

    banner("Summary")
    print(f"{'engine':<12} {'coverage':<8} {'simulated s':>12} {'correct':>8}")
    for engine, coverage, seconds, ok in results:
        print(f"{engine:<12} {coverage:<8} {seconds:>12.1f} {str(ok):>8}")


if __name__ == "__main__":
    main()
