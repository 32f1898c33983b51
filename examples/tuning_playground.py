#!/usr/bin/env python
"""System-tuning playground: the Section 5.3 knobs, interactively sized.

Reproduces (at a small, fast scale) the three tuning studies of the
paper's Section 5.3:

- Spark's input partition count (Figure 14),
- Myria's workers per node (Figure 13),
- Myria's memory-management strategies (Figure 15),

then shows the observability layer explaining *why* one of those
settings wins: the clusters of the worst and the best Spark partition
count are kept, and their records and memory trackers give a "where did
the time go" breakdown (straggler spread included) and a Chrome trace
you can open in chrome://tracing or ui.perfetto.dev.

Run with::

    python examples/tuning_playground.py
"""

from repro.cluster.errors import OutOfMemoryError
from repro.data import generate_subject, generate_visit
from repro.harness.experiments import run_neuro_end_to_end
from repro.harness.report import print_breakdown
from repro.harness.runner import fresh_engine, observe_clusters, Stopwatch
from repro.obs import write_chrome_trace
from repro.pipelines.astro.staging import stage_visits
from repro.plan import astro_plan, lower

N_NODES = 8


def spark_partitions():
    print("\nSpark input partitions (one subject, Figure 14):")
    subjects = [generate_subject("tune", scale=14, n_volumes=48)]
    for partitions in (1, 4, 16, 48):
        seconds = run_neuro_end_to_end(
            "spark", subjects, n_nodes=N_NODES,
            input_partitions=partitions, group_partitions=partitions,
        )
        bar = "#" * int(seconds / 10)
        print(f"  {partitions:>3} partitions: {seconds:8.1f} s  {bar}")


def myria_workers():
    print("\nMyria workers per node (Figure 13):")
    subjects = [
        generate_subject(f"w{i}", scale=14, n_volumes=48) for i in range(4)
    ]
    for workers in (1, 2, 4, 8):
        seconds = run_neuro_end_to_end(
            "myria", subjects, n_nodes=N_NODES, workers_per_node=workers
        )
        bar = "#" * int(seconds / 10)
        print(f"  {workers} workers/node: {seconds:8.1f} s  {bar}")


def myria_memory():
    print("\nMyria memory management on the astronomy case (Figure 15):")
    for n_visits in (2, 8):
        visits = [
            generate_visit(v, scale=60, n_sensors=10) for v in range(n_visits)
        ]
        print(f"  {n_visits} visits:")
        for mode, chunks in (("pipelined", 1), ("materialized", 1),
                             ("multiquery", 3)):
            cluster, engine = fresh_engine("myria", n_nodes=N_NODES)
            stage_visits(cluster.object_store, visits)
            watch = Stopwatch(cluster)
            try:
                lower(astro_plan(), "myria", engine).run(
                    visits, mode=mode, chunks=chunks, source="s3"
                )
                print(f"    {mode:<14} {watch.lap():8.1f} s")
            except OutOfMemoryError as exc:
                print(f"    {mode:<14}      OOM ({exc.node})")


def why_partitions_matter():
    """Read the Spark partition study's clusters instead of just timing it."""
    print("\nWhy partition count matters (observability layer):")
    subjects = [generate_subject("tune", scale=14, n_volumes=48)]
    for partitions in (1, 48):
        captured = []
        with observe_clusters(captured.append):
            run_neuro_end_to_end(
                "spark", subjects, n_nodes=N_NODES,
                input_partitions=partitions, group_partitions=partitions,
            )
        cluster = captured[-1]
        print(f"\n--- {partitions} partition(s) ---")
        print_breakdown(cluster)
        path = write_chrome_trace(
            cluster, f"spark-{partitions}-partitions-trace.json"
        )
        print(f"(Chrome trace written to {path})")


def main():
    spark_partitions()
    myria_workers()
    myria_memory()
    why_partitions_matter()
    print("\nTuned settings everywhere: the paper's Section 6 lesson --"
          " none of the systems performs best out of the box.")


if __name__ == "__main__":
    main()
