"""Generic RDD chain walker shared by the Spark lowerings.

Lowers a linear segment of logical-plan operators onto an RDD by
dispatching on op kind.  Kernel bodies are produced by per-op factory
methods named ``_udf_<op_id>`` on the concrete lowering class — keeping
each kernel a named closure preserves Table 1 LoC attribution
(``loc.py`` counts factories per step) and Spark task naming (task and
blame categories derive from closure ``__name__``).

Physical translation rules (the Spark side of the lowering contract):

* ``filter``       -> ``rdd.filter(udf(pred))``
* ``map``          -> ``rdd.map``/``rdd.mapValues`` (factory chooses)
* ``flat_map``     -> ``rdd.flatMap(costed_udf)``
* ``group_by`` with ``combinable=True`` -> map-side combine via
  ``map(to_pair).reduceByKey(combine).mapValues(finish)``
* ``group_by`` otherwise -> optional re-key ``map`` then
  ``groupByKey(numPartitions).map(agg)`` (a full shuffle)
* ``materialize``  -> identity; the step method collects.

Partition hints resolve against the live cluster: ``"n_nodes"`` ->
one partition per node, ``"total_slots"`` -> the caller's tuning
override or one per slot.

The step protocol (figures 11/12) is the same walk over a one-op
window: ``prepare`` persists the chain below the measured op, ``_run_step``
lowers ``expanded_chain(op, op)`` over it -- generic over every op of
both plans.
"""

from repro.engines.base import LoweredPlan, udf


class ChainWalker(LoweredPlan):
    """Turns ``plan.chain(first, last)`` into an RDD chain.

    Every costed function and RDD node the walker creates is stamped
    with the provenance id of the logical op it implements, so stage
    tasks, spans and blame segments fold back to plan ops (see
    ``repro.obs.attribution``).  Subclasses name their plan's scan
    (``scan_id``), provide the ``_udf_<op_id>`` factories and a
    ``bind(data)`` that captures what the factories close over.
    """

    scan_id = None

    def __init__(self, plan, sc):
        super().__init__(plan, sc)
        self.sc = sc
        self.group_partitions = None

    def scan(self, partitions=None, cache=False):
        """Lower the plan's scan: the RDD of staged objects."""
        op = self.plan.member(self.scan_id)
        rdd = self.sc.s3_objects(op.param("bucket"), numPartitions=partitions)
        rdd.plan_op = self.plan.provenance(self.scan_id)
        if cache:
            rdd = rdd.cache()
        return rdd

    # -- step protocol -------------------------------------------------

    def _cached_scan(self):
        return self.scan(
            partitions=self.sc.cluster.spec.total_slots, cache=True
        )

    def prepare(self, op_id, data):
        """Persist ``op_id``'s input in worker memory (the scan itself
        is measured from a warm deployment instead)."""
        self.bind(data)
        if op_id == self.scan_id:
            self.sc.ensure_started()
            return
        parent = self.plan.member(op_id).parents[0]
        below = self.plan.expanded_chain(self.scan_id, parent)[1:]
        self._input = self.lower_chain(self._cached_scan(), below).cache()
        self._input.persist_to_workers()

    def _run_step(self, op_id):
        if op_id == self.scan_id:
            rdd = self._scan_step()
        else:
            rdd = self.lower_chain(
                self._input, self.plan.expanded_chain(op_id, op_id)
            )
        rdd.persist_to_workers()

    def _scan_step(self):
        return self._cached_scan()

    # -- the walk ------------------------------------------------------

    def lower_chain(self, rdd, ops):
        for op in ops:
            rdd = getattr(self, "_lower_" + op.kind)(rdd, op)
            rdd.plan_op = self._pid(op)
        return rdd

    def _factory(self, op):
        return getattr(self, "_udf_" + op.op_id)

    def _pid(self, op):
        return self.plan.provenance(op.op_id)

    def _stamp(self, fn, op):
        """Coerce to a costed function carrying ``op``'s provenance id."""
        costed = udf(fn)
        if costed.op is None:
            costed.op = self._pid(op)
        return costed

    def _partitions(self, op):
        hint = op.param("partitions")
        if hint == "n_nodes":
            return self.sc.cluster.spec.n_nodes
        if hint == "total_slots":
            return self.group_partitions or self.sc.cluster.spec.total_slots
        return hint

    def _lower_filter(self, rdd, op):
        return rdd.filter(self._stamp(self._factory(op)(), op))

    def _lower_map(self, rdd, op):
        method, costed = self._factory(op)()
        return getattr(rdd, method)(self._stamp(costed, op))

    def _lower_flat_map(self, rdd, op):
        return rdd.flatMap(self._stamp(self._factory(op)(), op))

    def _lower_group_by(self, rdd, op):
        n = self._partitions(op)
        if op.param("combinable"):
            to_pair, combine, finish = self._factory(op)()
            return (
                rdd.map(self._stamp(to_pair, op))
                .reduceByKey(self._stamp(combine, op), numPartitions=n)
                .mapValues(self._stamp(finish, op))
            )
        pre, agg = self._factory(op)()
        if pre is not None:
            rdd = rdd.map(self._stamp(pre, op))
        return rdd.groupByKey(numPartitions=n).map(self._stamp(agg, op))

    def _lower_materialize(self, rdd, op):
        return rdd
