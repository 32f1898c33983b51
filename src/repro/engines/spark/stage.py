"""Stage-based execution of RDD lineage.

The scheduler cuts lineage at wide dependencies (shuffles) and cached
RDDs, fuses narrow transformations into their stage's tasks, and runs
one :class:`~repro.cluster.cluster.SimulatedCluster` DAG per stage.
Stage boundaries are genuine barriers -- the behavior the paper blames
for Spark/Myria trailing Dask on large inputs (Section 5.1: "must thus
wait for the preceding step to output the entire RDD").
"""

from repro.cluster.task import Task
from repro.engines.base import nominal_bytes_of
from repro.engines.spark.partitioner import HashPartitioner
from repro.engines.spark.rdd import NARROW_OPS, SOURCE_OPS, WIDE_OPS


class Partition:
    """A materialized partition: records resident on one node.

    ``task`` is the simulated task that produced the partition -- the
    lineage link downstream stages declare as a dependency, so that a
    node crash can trigger recomputation of exactly the lost partitions.
    """

    __slots__ = ("records", "nominal_bytes", "node", "on_disk", "task")

    def __init__(self, records, nominal_bytes, node, on_disk=False, task=None):
        self.records = records
        self.nominal_bytes = int(nominal_bytes)
        self.node = node
        self.on_disk = on_disk
        self.task = task

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

    def cached_partitions(self, rdd):
        """Stored partitions of a cached RDD, if any."""
        return self._cache_store.get(rdd.rdd_id)

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
                current_base = node
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
            inputs = self._read_cache(base)
            tasks = self._narrow_tasks(plan, inputs, shuffle_partitioner)
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
            records = result.value
            partitions.append(
                Partition(records, nominal_bytes_of(records), result.node,
                          task=task)
            )
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
        sources) so every Spark task carries a provenance id whenever
        the lineage came from a lowering.
        """
        for op in reversed(plan.narrow_ops):
            pid = getattr(op.fn, "op", None)
            if pid is not None:
                return pid
        if plan.base.fn is not None:
            pid = getattr(plan.base.fn, "op", None)
            if pid is not None:
                return pid
        return getattr(plan.base, "plan_op", None)

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
        """Optionally bucket output records for the next shuffle."""
        if shuffle_partitioner is None:
            return records
        buckets = {}
        for key, value in records:
            bucket = shuffle_partitioner.partition_for(key)
            buckets.setdefault(bucket, []).append((key, value))
        return buckets

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

    def _parallelize_tasks(self, plan, shuffle_partitioner):
        base = plan.base
        data = base.params["data"]
        n = base.num_partitions
        slices = [data[i::n] for i in range(n)]
        cm = self.sc.cluster.cost_model
        category = self._stage_category(plan, "spark-parallelize")
        stage_op = self._stage_op(plan)
        tasks = []
        for index, part_records in enumerate(slices):
            in_bytes = nominal_bytes_of(part_records)
            cell = {}

            def run(records=part_records, cell=cell):
                out, narrow_cost = self._apply_narrow(records, plan.narrow_ops)
                cell["narrow_cost"] = narrow_cost
                cell["out_bytes"] = nominal_bytes_of(out)
                return self._finish_records(out, shuffle_partitioner)

            def cost(in_bytes=in_bytes, cell=cell):
                # Driver ships the slice to the worker.
                total = cm.pickle_time(in_bytes)
                total += self.sc.cluster.network.transfer_time(
                    in_bytes, "driver", "worker"
                )
                total += cell["narrow_cost"]
                total += self._boundary_and_overhead(
                    in_bytes, cell["out_bytes"], shuffle_partitioner
                )
                return total

            tasks.append(
                Task(
                    f"spark-stage{self.stages_run}-part{index}",
                    fn=run,
                    duration=cost,
                    memory_bytes=in_bytes,
                    on_oom="spill",
                    category=category,
                    op=stage_op,
                )
            )
        return tasks

    def _s3_tasks(self, plan, shuffle_partitioner):
        base = plan.base
        store = self.sc.cluster.object_store
        bucket = base.params["bucket"]
        keys = base.params["keys"]
        loader = base.params["loader"]
        n = base.num_partitions
        # The Spark S3 API enumerates objects on the master before
        # scheduling the parallel download (Section 5.2.1).
        cm = self.sc.cluster.cost_model
        stage_op = self._stage_op(plan)
        self.sc.cluster.charge_master(
            cm.s3_list_time(len(keys)), label="s3 listing",
            category="spark-s3-ingest",
            op=getattr(base, "plan_op", None),
        )
        groups = [keys[i::n] for i in range(n)]
        tasks = []
        for index, group in enumerate(groups):
            if not group:
                group = []
            group_bytes = sum(store.size_of(bucket, k) for k in group)
            cell = {}

            def run(group=group, cell=cell):
                records = [loader(store.get(bucket, k)) for k in group]
                out, narrow_cost = self._apply_narrow(records, plan.narrow_ops)
                cell["narrow_cost"] = narrow_cost
                cell["out_bytes"] = nominal_bytes_of(out)
                return self._finish_records(out, shuffle_partitioner)

            def cost(group=group, group_bytes=group_bytes, cell=cell):
                # Concurrent download tasks on one node share its S3
                # bandwidth.
                spec = self.sc.cluster.spec
                s3_sharing = min(spec.slots_per_node, -(-n // spec.n_nodes))
                total = self.sc.cluster.network.s3_download_time(
                    group_bytes, n_objects=max(1, len(group))
                ) * s3_sharing
                total += cm.unpickle_time(group_bytes)
                total += cell["narrow_cost"]
                total += self._boundary_and_overhead(
                    group_bytes, cell["out_bytes"], shuffle_partitioner
                )
                return total

            tasks.append(
                Task(
                    f"spark-stage{self.stages_run}-s3part{index}",
                    fn=run,
                    duration=cost,
                    memory_bytes=group_bytes,
                    on_oom="spill",
                    category="spark-s3-ingest",
                    op=stage_op,
                )
            )
        return tasks

    def _narrow_tasks(self, plan, inputs, shuffle_partitioner):
        """Stage over already-materialized partitions (cache reads)."""
        cm = self.sc.cluster.cost_model
        category = self._stage_category(plan, "spark-cache-read")
        stage_op = self._stage_op(plan)
        tasks = []
        for index, partition in enumerate(inputs):
            cell = {}

            def run(partition=partition, cell=cell):
                out, narrow_cost = self._apply_narrow(
                    partition.records, plan.narrow_ops
                )
                cell["narrow_cost"] = narrow_cost
                cell["out_bytes"] = nominal_bytes_of(out)
                return self._finish_records(out, shuffle_partitioner)

            def cost(partition=partition, cell=cell):
                total = 0.0
                if partition.on_disk:
                    total += cm.disk_read_time(partition.nominal_bytes)
                total += cell["narrow_cost"]
                total += self._boundary_and_overhead(
                    partition.nominal_bytes, cell["out_bytes"], shuffle_partitioner
                )
                return total

            tasks.append(
                Task(
                    f"spark-stage{self.stages_run}-cached{index}",
                    fn=run,
                    duration=cost,
                    node=partition.node,  # locality: cache lives there
                    # Lineage link (timing-neutral: zero output bytes):
                    # if the cached partition died with its node, the
                    # executor recomputes it before this task runs.
                    deps=[partition.task] if partition.task is not None else (),
                    memory_bytes=partition.nominal_bytes,
                    on_oom="spill",
                    category=category,
                    op=stage_op,
                )
            )
        return tasks

    def _reduce_tasks(self, plan, upstream, shuffle_partitioner):
        """Shuffle-read side of a wide op, with fused narrow follow-ups."""
        base = plan.base
        cm = self.sc.cluster.cost_model
        n_reducers = base.num_partitions
        n_nodes = self.sc.cluster.spec.n_nodes
        remote_fraction = (n_nodes - 1) / n_nodes if n_nodes > 1 else 0.0

        stage_op = self._stage_op(plan)

        if base.op == "repartition":
            # Upstream produced plain record lists; round-robin them.
            all_records = []
            for partition in upstream:
                all_records.extend(partition.records)
            buckets = {
                r: all_records[r::n_reducers] for r in range(n_reducers)
            }
            upstream_buckets = [buckets]
        else:
            upstream_buckets = [p.records for p in upstream]  # dicts

        tasks = []
        for reducer in range(n_reducers):
            cell = {}

            def gather(reducer=reducer):
                records = []
                for bucket_map in upstream_buckets:
                    records.extend(bucket_map.get(reducer, []))
                return records

            def run(reducer=reducer, cell=cell):
                records = gather(reducer)
                cell["in_bytes"] = nominal_bytes_of(records)
                combine_cost = 0.0
                if base.op == "groupByKey":
                    grouped = {}
                    for key, value in records:
                        grouped.setdefault(key, []).append(value)
                    mid = [(k, vs) for k, vs in grouped.items()]
                elif base.op == "reduceByKey":
                    reduced = {}
                    for key, value in records:
                        if key in reduced:
                            combine_cost += base.fn.cost(reduced[key], value)
                            reduced[key] = base.fn(reduced[key], value)
                        else:
                            reduced[key] = value
                    mid = list(reduced.items())
                else:  # repartition
                    mid = records
                out, narrow_cost = self._apply_narrow(mid, plan.narrow_ops)
                cell["compute_cost"] = combine_cost + narrow_cost
                cell["out_bytes"] = nominal_bytes_of(out)
                return self._finish_records(out, shuffle_partitioner)

            def cost(cell=cell):
                in_bytes = cell["in_bytes"]
                total = cm.disk_read_time(in_bytes)
                # Concurrent reducers on a node share its NIC, so each
                # task's shuffle read is slowed by the per-node task
                # concurrency (bounded by how many reducers exist).
                spec = self.sc.cluster.spec
                nic_sharing = min(
                    spec.slots_per_node,
                    -(-n_reducers // spec.n_nodes),
                )
                total += self.sc.cluster.network.transfer_time(
                    int(in_bytes * remote_fraction), "maps", "reduce"
                ) * nic_sharing
                total += cm.unpickle_time(in_bytes)
                total += cell["compute_cost"]
                total += self._boundary_and_overhead(
                    in_bytes, cell["out_bytes"], shuffle_partitioner
                )
                return total

            in_estimate = sum(
                nominal_bytes_of(bm.get(reducer, [])) for bm in upstream_buckets
            )
            tasks.append(
                Task(
                    f"spark-stage{self.stages_run}-reduce{reducer}",
                    fn=run,
                    duration=cost,
                    # Lineage links to every map-side partition (a wide
                    # dependency): lost shuffle outputs recompute first.
                    deps=[p.task for p in upstream if p.task is not None],
                    memory_bytes=in_estimate,
                    on_oom="spill",
                    category="spark-shuffle",
                    op=stage_op,
                )
            )
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
                    op=getattr(rdd, "plan_op", None),
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

    def _read_cache(self, rdd):
        return self._cache_store[rdd.rdd_id]
