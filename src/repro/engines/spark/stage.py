"""Stage-based execution of RDD lineage.

The scheduler cuts lineage at wide dependencies (shuffles) and cached
RDDs, fuses narrow transformations into their stage's tasks, and runs
one :class:`~repro.cluster.cluster.SimulatedCluster` DAG per stage.
Stage boundaries are genuine barriers -- the behavior the paper blames
for Spark/Myria trailing Dask on large inputs (Section 5.1: "must thus
wait for the preceding step to output the entire RDD").
"""

from repro.cluster.task import Task, Upstream
from repro.engines.base import nominal_bytes_of
from repro.engines.spark.partitioner import HashPartitioner
from repro.engines.spark.rdd import NARROW_OPS, SOURCE_OPS, WIDE_OPS


class Partition:
    """A materialized partition: records resident on one node.

    ``task`` is the simulated task that produced the partition -- the
    lineage link downstream stages declare as a dependency, so that a
    node crash can trigger recomputation of exactly the lost partitions.
    A map-side partition's ``records`` is a ``{bucket: records}`` map
    for the next shuffle, and ``bucket_bytes`` holds each bucket's
    nominal bytes; it is None for a plain record list.  A map-side
    partition of a cached RDD also keeps its plain record list as
    ``rows``, which is what the cache stores.
    """

    __slots__ = ("records", "nominal_bytes", "node", "on_disk", "task",
                 "bucket_bytes", "rows")

    def __init__(self, records, nominal_bytes, node, on_disk=False, task=None,
                 bucket_bytes=None, rows=None):
        self.records = records
        self.nominal_bytes = int(nominal_bytes)
        self.node = node
        self.on_disk = on_disk
        self.task = task
        self.bucket_bytes = bucket_bytes
        self.rows = rows

    def __repr__(self):
        return (
            f"Partition({len(self.records)} records, {self.nominal_bytes} B"
            f" on {self.node})"
        )


class _StagePlan:
    """One stage: a base (source/wide/cached input) plus fused narrow ops."""

    def __init__(self, base_rdd, narrow_ops):
        self.base = base_rdd
        self.narrow_ops = narrow_ops  # in application order

    @property
    def result_rdd(self):
        """Result rdd."""
        return self.narrow_ops[-1] if self.narrow_ops else self.base


class SparkScheduler:
    """Turns lineage into simulated-cluster task DAGs, stage by stage."""

    def __init__(self, sc):
        self.sc = sc
        self._cache_store = {}
        self.stages_run = 0

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def materialize(self, rdd):
        """Compute ``rdd``; returns its list of :class:`Partition`."""
        self.sc.ensure_started()
        plans = self._plan_stages(rdd)
        partitions = None
        obs = self.sc.cluster.obs
        for index, plan in enumerate(plans):
            shuffle_partitioner = None
            if index + 1 < len(plans) and plans[index + 1].base.op in WIDE_OPS:
                nxt = plans[index + 1].base
                shuffle_partitioner = HashPartitioner(nxt.num_partitions)
            with obs.span(
                f"spark-stage{self.stages_run}", category="spark",
                op=plan.base.op, plan_op=self._stage_op(plan),
            ):
                partitions = self._run_stage(plan, partitions, shuffle_partitioner)
                self.stages_run += 1
                for node in plan.narrow_ops + [plan.base]:
                    if node.cached and node is plan.result_rdd:
                        self._store_cache(node, partitions)
        return partitions

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _plan_stages(self, rdd):
        """Split lineage into stages, newest last.

        A stage starts at a source, a wide op, or a cached RDD that has
        already been materialized (its partitions short-circuit the
        upstream lineage).
        """
        lineage = rdd.lineage()
        # Find the latest point we can restart from.
        start = 0
        for i, node in enumerate(lineage):
            if node.rdd_id in self._cache_store:
                start = i
        stages = []
        current_base = None
        current_narrow = []
        pending = False
        for node in lineage[start:]:
            if node.rdd_id in self._cache_store and node is lineage[start]:
                # A stage reads the cache, even when a shuffle follows.
                current_base = node
                pending = True
                continue
            if node.op in SOURCE_OPS or node.op in WIDE_OPS:
                if current_base is not None and pending:
                    stages.append(_StagePlan(current_base, current_narrow))
                current_base = node
                current_narrow = []
                pending = True
            elif node.op in NARROW_OPS:
                if current_base is None:
                    raise RuntimeError(f"narrow op {node.op} with no base stage")
                current_narrow.append(node)
                pending = True
            else:
                raise RuntimeError(f"unknown RDD op {node.op!r}")
            # A cached RDD is a materialization point: close the stage
            # here so its partitions are computed once and stored; the
            # rest of the lineage reads from the cache.
            if node.cached:
                stages.append(_StagePlan(current_base, current_narrow))
                current_base = node
                current_narrow = []
                pending = False
        if pending or not stages:
            stages.append(_StagePlan(current_base, current_narrow))
        return stages

    # ------------------------------------------------------------------
    # Stage execution
    # ------------------------------------------------------------------

    def _run_stage(self, plan, upstream, shuffle_partitioner):
        base = plan.base
        if base.rdd_id in self._cache_store:
            tasks = self._cached_tasks(plan, shuffle_partitioner)
        elif base.op == "parallelize":
            tasks = self._parallelize_tasks(plan, shuffle_partitioner)
        elif base.op == "s3_objects":
            tasks = self._s3_tasks(plan, shuffle_partitioner)
        elif base.op in WIDE_OPS:
            tasks = self._reduce_tasks(plan, upstream, shuffle_partitioner)
        else:
            raise RuntimeError(f"cannot run stage rooted at {base.op!r}")

        results = self.sc.cluster.run(tasks)
        partitions = []
        for task in tasks:
            result = results[task.task_id]
            records, nominal_bytes, bucket_bytes, rows = result.value
            partitions.append(Partition(records, nominal_bytes, result.node,
                                        task=task, bucket_bytes=bucket_bytes,
                                        rows=rows))
        return partitions

    # -- stage bodies ---------------------------------------------------

    def _stage_category(self, plan, default):
        """Blame category of a stage's tasks.

        Named after the last costed narrow op fused into the stage
        (``spark-denoise``), so per-step blame survives stage-number
        churn; stages with only anonymous ops fall back to ``default``.
        """
        for op in reversed(plan.narrow_ops):
            name = getattr(op.fn, "name", None)
            if name and name != "<lambda>":
                return f"spark-{name}"
        return default

    def _stage_op(self, plan):
        """Provenance id of a stage's tasks.

        Narrow fusion means one physical task implements several logical
        ops; the stage is attributed to the *last* stamped op in the
        fused chain, falling back to the base RDD's own stamp (wide ops,
        sources): a lowering's provenance id, or ``@overhead`` for
        lineage user code built without a plan.
        """
        for node in reversed(plan.narrow_ops):
            if node.fn.op is not None:
                return node.fn.op
        base = plan.base
        if base.fn is not None and base.fn.op is not None:
            return base.fn.op
        return base.plan_op

    def _apply_narrow(self, records, narrow_ops):
        """Run the fused narrow chain over a record list.

        Executes the real compute exactly once and simultaneously prices
        it; returns ``(out_records, simulated_seconds)``.
        """
        out = records
        cost = 0.0
        for op in narrow_ops:
            fn = op.fn
            if op.op == "map":
                cost += sum(fn.cost(r) for r in out)
                out = [fn(r) for r in out]
            elif op.op == "flatMap":
                cost += sum(fn.cost(r) for r in out)
                out = [item for r in out for item in fn(r)]
            elif op.op == "filter":
                cost += sum(fn.cost(r) for r in out)
                out = [r for r in out if fn(r)]
            elif op.op == "mapValues":
                cost += sum(fn.cost(v) for _k, v in out)
                out = [(k, fn(v)) for k, v in out]
            else:
                raise RuntimeError(f"not a narrow op: {op.op}")
        return out, cost

    def _finish_records(self, records, shuffle_partitioner):
        """Size the output as ``(records, nominal_bytes, bucket_bytes)``.

        Before a shuffle each record is sized once, as it is bucketed,
        into its bucket's total; otherwise ``bucket_bytes`` is None."""
        if shuffle_partitioner is None:
            return records, nominal_bytes_of(records), None
        buckets = {}
        bucket_bytes = {}
        for key, value in records:
            bucket = shuffle_partitioner.partition_for(key)
            record = (key, value)
            buckets.setdefault(bucket, []).append(record)
            bucket_bytes[bucket] = bucket_bytes.get(bucket, 0) + nominal_bytes_of(record)
        return buckets, sum(bucket_bytes.values()), bucket_bytes

    def _boundary_and_overhead(self, in_bytes, out_bytes, shuffle_partitioner):
        """Fixed per-task costs: scheduling + Python boundary + shuffle
        write.  This serialization tax is why Spark's cheap operations
        trail Dask by an order of magnitude (Section 5.2.2)."""
        cm = self.sc.cluster.cost_model
        cost = cm.spark_task_overhead
        cost += cm.python_boundary_time(in_bytes + out_bytes)
        if shuffle_partitioner is not None:
            cost += cm.pickle_time(out_bytes) + cm.disk_write_time(out_bytes)
        return cost

    def _stage_task(self, plan, shuffle_partitioner, suffix, read,
                    combine=None, **placement):
        """One task of the running stage, priced in the pass that runs it.

        ``read()`` returns the partition's input records, their nominal
        bytes and the seconds reading them costs; ``combine(records)``
        (reduce stages only) returns the combined records and their
        seconds.  The task then runs the fused narrow chain and buckets
        its output for the next shuffle.  Its price adds, in this order:
        the input cost, combine + narrow cost, and the fixed per-task
        costs.  ``placement`` holds the task's ``node``, ``deps``,
        ``memory_bytes`` and ``category``.

        The task's value is ``(records, nominal_bytes, bucket_bytes)``
        from :meth:`_finish_records` (the output is sized once, here),
        then the unbucketed records when the stage's RDD is cached and
        feeds a shuffle, else None.
        """
        cell = {}
        keep_rows = shuffle_partitioner is not None and plan.result_rdd.cached

        def run():
            records, in_bytes, seconds = read()
            combine_cost = 0.0
            if combine is not None:
                records, combine_cost = combine(records)
            out, narrow_cost = self._apply_narrow(records, plan.narrow_ops)
            finished, out_bytes, bucket_bytes = self._finish_records(
                out, shuffle_partitioner
            )
            seconds += combine_cost + narrow_cost
            seconds += self._boundary_and_overhead(
                in_bytes, out_bytes, shuffle_partitioner
            )
            cell["seconds"] = seconds
            return finished, out_bytes, bucket_bytes, out if keep_rows else None

        return Task(
            f"spark-stage{self.stages_run}-{suffix}",
            fn=run,
            duration=lambda: cell["seconds"],
            on_oom="spill",
            op=self._stage_op(plan),
            **placement,
        )

    def _parallelize_tasks(self, plan, shuffle_partitioner):
        data = plan.base.params["data"]
        n = plan.base.num_partitions
        cluster = self.sc.cluster
        cm = cluster.cost_model
        category = self._stage_category(plan, "spark-parallelize")
        tasks = []
        for index in range(n):
            records = data[index::n]
            in_bytes = nominal_bytes_of(records)

            def read(records=records, in_bytes=in_bytes):
                # Driver ships the slice to the worker.
                seconds = cm.pickle_time(in_bytes)
                seconds += cluster.network.transfer_time(
                    in_bytes, "driver", "worker"
                )
                return records, in_bytes, seconds

            tasks.append(self._stage_task(
                plan, shuffle_partitioner, f"part{index}", read,
                memory_bytes=in_bytes, category=category,
            ))
        return tasks

    def _s3_tasks(self, plan, shuffle_partitioner):
        base = plan.base
        cluster = self.sc.cluster
        store = cluster.s3
        bucket = base.params["bucket"]
        keys = base.params["keys"]
        loader = base.params["loader"]
        n = base.num_partitions
        # The Spark S3 API enumerates objects on the master before
        # scheduling the parallel download (Section 5.2.1).
        cm = cluster.cost_model
        cluster.charge_master(
            cm.s3_list_time(len(keys)), label="s3 listing",
            category="spark-s3-ingest",
            op=base.plan_op,
        )
        # Concurrent download tasks on one node share its S3 bandwidth.
        s3_sharing = min(cluster.spec.slots_per_node,
                         -(-n // cluster.spec.n_nodes))
        tasks = []
        for index in range(n):
            group = keys[index::n]
            group_bytes = sum(store.size_of(bucket, k) for k in group)

            def read(group=group, group_bytes=group_bytes):
                records = [loader(store.get(bucket, k)) for k in group]
                seconds = cluster.network.s3_download_time(
                    group_bytes, n_objects=max(1, len(group))
                ) * s3_sharing
                seconds += cm.unpickle_time(group_bytes)
                return records, group_bytes, seconds

            tasks.append(self._stage_task(
                plan, shuffle_partitioner, f"s3part{index}", read,
                memory_bytes=group_bytes, category="spark-s3-ingest",
            ))
        return tasks

    def _cached_tasks(self, plan, shuffle_partitioner):
        """Stage over a cached RDD's stored partitions."""
        cm = self.sc.cluster.cost_model
        category = self._stage_category(plan, "spark-cache-read")
        tasks = []
        for index, partition in enumerate(self._cache_store[plan.base.rdd_id]):

            def read(partition=partition):
                seconds = 0.0
                if partition.on_disk:
                    seconds += cm.disk_read_time(partition.nominal_bytes)
                return partition.records, partition.nominal_bytes, seconds

            tasks.append(self._stage_task(
                plan, shuffle_partitioner, f"cached{index}", read,
                node=partition.node,  # locality: cache lives there
                # Lineage link (timing-neutral: zero output bytes): if
                # the cached partition died with its node, the executor
                # recomputes it before this task runs.
                deps=[partition.task] if partition.task is not None else (),
                memory_bytes=partition.nominal_bytes,
                category=category,
            ))
        return tasks

    def _reduce_tasks(self, plan, upstream, shuffle_partitioner):
        """Shuffle-read side of a wide op, with fused narrow follow-ups."""
        base = plan.base
        cluster = self.sc.cluster
        cm = cluster.cost_model
        n_reducers = base.num_partitions
        spec = cluster.spec
        remote_fraction = (
            (spec.n_nodes - 1) / spec.n_nodes if spec.n_nodes > 1 else 0.0
        )
        # Concurrent reducers on a node share its NIC, so each task's
        # shuffle read is slowed by the per-node task concurrency
        # (bounded by how many reducers exist).
        nic_sharing = min(spec.slots_per_node, -(-n_reducers // spec.n_nodes))

        def combine(records):
            if base.op == "groupByKey":
                grouped = {}
                for key, value in records:
                    grouped.setdefault(key, []).append(value)
                return list(grouped.items()), 0.0
            cost = 0.0  # reduceByKey
            reduced = {}
            for key, value in records:
                if key in reduced:
                    cost += base.fn.cost(reduced[key], value)
                    reduced[key] = base.fn(reduced[key], value)
                else:
                    reduced[key] = value
            return list(reduced.items()), cost

        # One pass over the map outputs gathers each reducer's input and
        # its byte total, in map-partition order, then bucket order.
        inputs = [[] for _ in range(n_reducers)]
        in_bytes = [0] * n_reducers
        for partition in upstream:
            for reducer, records in partition.records.items():
                inputs[reducer].extend(records)
                in_bytes[reducer] += partition.bucket_bytes[reducer]

        # Lineage links to every map-side partition (a wide dependency):
        # lost shuffle outputs recompute first.
        deps = Upstream(p.task for p in upstream if p.task is not None)
        tasks = []
        for reducer in range(n_reducers):

            def read(records=inputs[reducer], nbytes=in_bytes[reducer]):
                seconds = cm.disk_read_time(nbytes)
                seconds += cluster.network.transfer_time(
                    int(nbytes * remote_fraction), "maps", "reduce"
                ) * nic_sharing
                seconds += cm.unpickle_time(nbytes)
                return records, nbytes, seconds

            tasks.append(self._stage_task(
                plan, shuffle_partitioner, f"reduce{reducer}", read,
                combine=combine,
                deps=deps,
                memory_bytes=in_bytes[reducer],
                category="spark-shuffle",
            ))
        return tasks

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------

    def _store_cache(self, rdd, partitions):
        """Pin partitions in node memory; overflow spills to disk.

        "Spark supports caching data in memory ... Caching can be
        harmful if the results are not needed by multiple steps as
        caching reduces the memory available to query processing."
        (Section 5.3.3.)
        """
        cm = self.sc.cluster.cost_model
        stored = []
        for partition in partitions:
            if partition.rows is not None:
                # The cache holds the RDD's records, not the buckets of
                # the shuffle that read them.
                partition = Partition(partition.rows, partition.nominal_bytes,
                                      partition.node, task=partition.task)
            node = self.sc.cluster.node(partition.node)
            if node.memory.would_fit(partition.nominal_bytes):
                node.memory.allocate(partition.nominal_bytes, f"cache-rdd{rdd.rdd_id}")
                stored.append(partition)
            else:
                # Spill the cached partition to local disk.
                self.sc.cluster.charge_master(
                    cm.disk_write_time(partition.nominal_bytes),
                    label="cache spill",
                    category="spark-cache",
                    op=rdd.plan_op,
                )
                stored.append(
                    Partition(
                        partition.records,
                        partition.nominal_bytes,
                        partition.node,
                        on_disk=True,
                    )
                )
        self._cache_store[rdd.rdd_id] = stored
