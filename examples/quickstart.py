#!/usr/bin/env python
"""Quickstart: run the neuroscience pipeline on two engines and compare.

This is the smallest end-to-end tour of the reproduction:

1. Generate a synthetic diffusion-MRI subject (a stand-in for one Human
   Connectome Project subject; Section 3.1 of the paper).
2. Run the reference single-process pipeline: segmentation, denoising,
   diffusion-tensor fitting.
3. Run the same pipeline on miniSpark and miniMyria deployed on
   simulated 4-node clusters, verify the outputs match the reference
   bit-for-bit, and compare the simulated runtimes.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.data import generate_subject
from repro.engines.myria import MyriaConnection
from repro.engines.spark import SparkContext
from repro.pipelines.neuro import run_reference
from repro.pipelines.neuro.staging import stage_subjects
from repro.plan import lower, neuro_plan


def main():
    print("Generating a synthetic dMRI subject (scaled-down HCP stand-in)...")
    subject = generate_subject("demo-subject", scale=12, n_volumes=24)
    print(f"  real array: {subject.data.array.shape},"
          f" nominal: {subject.data.nominal_shape}"
          f" ({subject.nominal_bytes / 1e9:.1f} GB at paper scale)")

    print("\nReference pipeline (single process)...")
    ref_mask, _denoised, ref_fa = run_reference(subject)
    print(f"  brain mask covers {ref_mask.mean():.0%} of the volume;"
          f" peak FA = {ref_fa.max():.2f}")

    print("\nminiSpark on a simulated 4-node cluster...")
    spark_cluster = SimulatedCluster(ClusterSpec(n_nodes=4))
    sc = SparkContext(spark_cluster)
    stage_subjects(spark_cluster.object_store, [subject])
    masks, fa = lower(neuro_plan(), "spark", sc).run(
        [subject], input_partitions=16
    )
    spark_ok = np.allclose(fa["demo-subject"].array, ref_fa, atol=1e-10)
    print(f"  simulated runtime: {spark_cluster.now:8.1f} s"
          f"   matches reference: {spark_ok}")

    print("\nminiMyria on a simulated 4-node cluster (4 workers/node)...")
    myria_cluster = SimulatedCluster(
        ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
    )
    conn = MyriaConnection(myria_cluster)
    stage_subjects(myria_cluster.object_store, [subject])
    masks, fa = lower(neuro_plan(), "myria", conn).run([subject], source="s3")
    myria_ok = np.allclose(fa["demo-subject"].array, ref_fa, atol=1e-10)
    print(f"  simulated runtime: {myria_cluster.now:8.1f} s"
          f"   matches reference: {myria_ok}")

    assert spark_ok and myria_ok
    print("\nBoth engines reproduce the reference pipeline exactly.")


if __name__ == "__main__":
    main()
