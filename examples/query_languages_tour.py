#!/usr/bin/env python
"""A tour of the two query-language front-ends: MyriaL and AFL.

The paper contrasts systems by how their languages accommodate image
analytics (Section 4): MyriaL mixes SQL-like queries with imperative
loops and Python UDFs; SciDB's AQL/AFL is array-native but required
rewrites.  This example runs both languages against the mini engines.

Run with::

    python examples/query_languages_tour.py
"""

import numpy as np

from repro.cluster import ClusterSpec, SimulatedCluster
from repro.data import generate_subject
from repro.engines.base import udf
from repro.engines.myria import MyriaConnection, MyriaQuery, Relation
from repro.engines.scidb import SciDBConnection
from repro.engines.scidb.afl import execute as afl
from repro.plan import PSEUDO_OVERHEAD, lower, neuro_plan


def myrial_tour():
    print("=== MyriaL " + "=" * 50)
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
    )
    conn = MyriaConnection(cluster)

    rows = [(f"subj{i % 3}", i, float(2 ** (i % 8))) for i in range(24)]
    conn.ingest_relation(
        Relation.from_rows("Scans", ("subjId", "imgId", "signal"), rows),
        "subjId", op=PSEUDO_OVERHEAD,
    )

    print("\n1. Declarative query with built-in aggregates:")
    query = MyriaQuery.submit(conn, """
        T = SCAN(Scans);
        Stats = [FROM T EMIT T.subjId, COUNT(T.imgId) AS n,
                 AVG(T.signal) AS mean];
    """, op=PSEUDO_OVERHEAD)
    for row in sorted(query.relation("Stats").rows):
        print(f"   {row[0]}: n={row[1]}, mean={row[2]:.1f}")

    print("\n2. Python UDF in the query (the paper's Figure 7 pattern):")
    conn.create_function("Log2", udf(lambda s: float(np.log2(s))))
    query = MyriaQuery.submit(conn, """
        T = SCAN(Scans);
        L = [FROM T EMIT T.subjId, T.imgId, PYUDF(Log2, T.signal) AS lg];
        Big = [SELECT L.subjId, L.imgId FROM L WHERE L.lg >= 6.0];
    """, op=PSEUDO_OVERHEAD)
    print(f"   rows with log2(signal) >= 6: {len(query.relation('Big').rows)}")

    print("\n3. Imperative DO...WHILE (MyriaL's hybrid nature):")
    conn.create_function("Halve", udf(lambda s: s / 2.0))
    query = MyriaQuery.submit(conn, """
        T = SCAN(Scans);
        Cur = [FROM T EMIT T.subjId, T.imgId, T.signal];
        DO
            Cur = [FROM Cur EMIT Cur.subjId, Cur.imgId,
                   PYUDF(Halve, Cur.signal) AS signal];
            Hot = [SELECT Cur.imgId FROM Cur WHERE Cur.signal >= 1.0];
        WHILE Hot;
    """, op=PSEUDO_OVERHEAD)
    signals = [row[2] for row in query.relation("Cur").rows]
    print(f"   after iterative halving, max signal = {max(signals):.3f}")
    print(f"   simulated time so far: {cluster.now:.1f} s")


def afl_tour():
    print("\n=== AFL (SciDB) " + "=" * 45)
    cluster = SimulatedCluster(
        ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
    )
    sdb = SciDBConnection(cluster)
    subject = generate_subject("afldemo", scale=14, n_volumes=24)
    lower(neuro_plan(), "scidb", sdb).ingest(subject, method="aio")
    name = "sub_afldemo"

    print("\n1. Figure 5's pattern — filter b0 volumes, mean over them:")
    mean = afl(sdb, f"aggregate(filter(scan({name}), vol < 18), avg(v), x, y, z)")
    print(f"   mean volume: nominal {mean.nominal_shape},"
          f" brain-ish peak {mean.real.max():.0f}")

    print("\n2. apply() arithmetic and project():")
    scaled = afl(sdb, f"project(apply(scan({name}), w, v / 1000), w)")
    print(f"   rescaled attribute {scaled.attr!r},"
          f" max {scaled.real.max():.3f}")

    print("\n3. between() dimension windows:")
    slab = afl(
        sdb,
        f"between(scan({name}), 0, 0, 0, 0, 144, 144, 86, 287)",
    )
    print(f"   z-slab nominal shape: {slab.nominal_shape}")
    print(f"   simulated time so far: {cluster.now:.1f} s")


def main():
    myrial_tour()
    afl_tour()
    print("\nBoth front-ends drive the same simulated engines the"
          " benchmarks use.")


if __name__ == "__main__":
    main()
