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

    def keyBy(self, fn):  # noqa: N802
        """Turn records into ``(fn(record), record)`` pairs."""
        keyer = as_costed(fn)
        return self.map(
            as_costed(lambda record: (keyer(record), record))
        )

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

    def groupBy(self, key_fn, numPartitions=None):  # noqa: N802,N803
        """``keyBy`` then ``groupByKey`` -- the paper's Figure 6 idiom."""
        return self.keyBy(key_fn).groupByKey(numPartitions=numPartitions)

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

    def count(self):
        """Number of records (counts computed on workers, tiny result)."""
        partitions = self.sc.scheduler.materialize(self)
        return sum(len(p.records) for p in partitions)

    def take(self, n):
        """First ``n`` records (in partition order)."""
        if n <= 0:
            return []
        partitions = self.sc.scheduler.materialize(self)
        out = []
        taken_bytes = 0
        for partition in partitions:
            for record in partition.records:
                out.append(record)
                if len(out) == n:
                    from repro.engines.base import nominal_bytes_of

                    self.sc.cluster.charge_master(
                        self.sc.cluster.cost_model.python_boundary_time(
                            nominal_bytes_of(out)
                        ),
                        label="take",
                        category="spark-collect",
                        op=self.plan_op,
                    )
                    return out
        self.sc.cluster.charge_master(
            self.sc.cluster.cost_model.python_boundary_time(
                sum(p.nominal_bytes for p in partitions)
            ),
            label="take",
            category="spark-collect",
            op=self.plan_op,
        )
        return out

    def first(self):
        """The first record; raises ``ValueError`` on an empty RDD."""
        records = self.take(1)
        if not records:
            raise ValueError("RDD is empty")
        return records[0]

    def distinct(self, numPartitions=None):  # noqa: N802,N803
        """Unique records, via the classic map/reduceByKey encoding."""
        from repro.engines.base import udf as _udf

        return (
            self.map(_udf(lambda x: (x, None)))
            .reduceByKey(_udf(lambda a, b: a),
                         numPartitions=numPartitions or self.num_partitions)
            .map(_udf(lambda kv: kv[0]))
        )

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
