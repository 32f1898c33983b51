"""Resilient Distributed Datasets: the lazy lineage graph.

RDDs record transformations without executing them; actions hand the
lineage to the scheduler (:mod:`repro.engines.spark.stage`), which cuts
it into stages at shuffle boundaries, exactly as described in Section 2:
"Programs that manipulate RDDs are represented as graphs."
"""

from repro.engines.base import as_costed
from repro.obs.spans import PSEUDO_OVERHEAD

#: Operations that repartition by key and therefore end a stage.
WIDE_OPS = frozenset({"groupByKey", "reduceByKey"})
#: Per-record narrow operations fused into their parent's stage.
NARROW_OPS = frozenset({"map", "flatMap", "filter", "mapValues"})
#: Lineage sources.
SOURCE_OPS = frozenset({"parallelize", "s3_objects"})


class RDD:
    """One node of the lineage graph.

    Not intended to be constructed directly; use
    :class:`~repro.engines.spark.context.SparkContext` factories and the
    transformation methods below.
    """

    def __init__(self, sc, op, parent=None, fn=None, num_partitions=None, params=None):
        self.rdd_id = next(sc.rdd_ids)
        self.sc = sc
        self.op = op
        self.parent = parent
        self.fn = as_costed(fn) if fn is not None else None
        if num_partitions is None and parent is not None:
            num_partitions = parent.num_partitions
        self.num_partitions = num_partitions
        self.params = dict(params or {})
        self.cached = False
        #: Provenance id of the logical op this node implements, stamped
        #: by the lowering walker; ``@overhead`` for an RDD user code
        #: builds without a plan.
        self.plan_op = PSEUDO_OVERHEAD

    # ------------------------------------------------------------------
    # Narrow transformations (fused into the current stage)
    # ------------------------------------------------------------------

    def map(self, fn):
        """Apply ``fn`` to every record."""
        return RDD(self.sc, "map", parent=self, fn=fn)

    def flatMap(self, fn):  # noqa: N802 - mirrors the PySpark API
        """Apply ``fn`` and flatten the returned iterables."""
        return RDD(self.sc, "flatMap", parent=self, fn=fn)

    def filter(self, fn):
        """Keep records for which ``fn`` is truthy."""
        return RDD(self.sc, "filter", parent=self, fn=fn)

    def mapValues(self, fn):  # noqa: N802
        """Apply ``fn`` to the value of every (key, value) record."""
        return RDD(self.sc, "mapValues", parent=self, fn=fn)

    # ------------------------------------------------------------------
    # Wide transformations (stage boundaries / shuffles)
    # ------------------------------------------------------------------

    def groupByKey(self, numPartitions=None):  # noqa: N802,N803
        """Shuffle (key, value) records into (key, [values]) groups."""
        return RDD(
            self.sc,
            "groupByKey",
            parent=self,
            num_partitions=numPartitions or self.num_partitions,
        )

    def reduceByKey(self, fn, numPartitions=None):  # noqa: N802,N803
        """Shuffle then combine values per key with a binary ``fn``."""
        return RDD(
            self.sc,
            "reduceByKey",
            parent=self,
            fn=fn,
            num_partitions=numPartitions or self.num_partitions,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def cache(self):
        """Keep this RDD's partitions in cluster memory after first
        computation (Section 5.3.3)."""
        self.cached = True
        return self

    # ------------------------------------------------------------------
    # Actions (trigger execution)
    # ------------------------------------------------------------------

    def collect(self):
        """Materialize all records at the driver."""
        partitions = self.sc.scheduler.materialize(self)
        records = []
        for partition in partitions:
            records.extend(partition.records)
        # Results return to the driver: charge the boundary crossing.
        total = sum(p.nominal_bytes for p in partitions)
        self.sc.cluster.charge_master(
            self.sc.cluster.cost_model.python_boundary_time(total),
            label="collect",
            category="spark-collect",
            op=self.plan_op,
        )
        return records

    def persist_to_workers(self):
        """Materialize partitions but leave them on the workers.

        This mirrors the paper's end-to-end methodology: "We materialize
        the final output in worker memories" (Section 5.1).
        """
        return self.sc.scheduler.materialize(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def lineage(self):
        """RDDs from source to self."""
        chain = []
        node = self
        while node is not None:
            chain.append(node)
            node = node.parent
        return list(reversed(chain))

    def __repr__(self):
        return f"RDD(#{self.rdd_id} {self.op}, partitions={self.num_partitions})"
