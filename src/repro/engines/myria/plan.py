"""Physical query execution for miniMyria.

A parsed MyriaL :class:`~repro.engines.myria.myrial.Program` executes
statement by statement across the workers.  Three execution modes model
the memory-management trade-off of Section 5.3.2 / Figure 15:

- ``"pipelined"`` -- intermediates stay in worker memory for the whole
  query (fastest; fails with :class:`OutOfMemoryError` when the data
  outgrows the cluster).
- ``"materialized"`` -- every statement's output is written to local
  disk and read back by the next (8-11% slower in the paper).
- ``"chunked"`` -- the materialized plan runs serially over ``chunks``
  subsets of the input (15-23% slower; survives the largest inputs).

Worker-per-node contention reproduces Figure 13: more workers increase
parallelism until they compete for cores, memory bandwidth and disk.
"""

from repro.cluster.errors import NodeCrashedError
from repro.cluster.faults import abort_recovery
from repro.cluster.task import Task
from repro.engines.myria.myrial import (
    Assign,
    Column,
    Emit,
    Scan,
    Store,
    UdfCall,
    Unnest,
)
from repro.engines.myria.operators import (
    RowContext,
    build_column_map,
    check_condition,
    evaluate,
    expression_cost,
    group_rows,
    hash_join,
    rows_bytes,
    shard_by_key,
    split_conditions,
)
from repro.engines.myria.relation import Schema
from repro.engines.myria.storage import ShardedRelation, WorkerStorage
from repro.obs.spans import PSEUDO_RECOVERY

EXECUTION_MODES = ("pipelined", "materialized", "chunked")


def _make_builtin_udfs():
    """Native aggregates, evaluated without Python UDF overhead."""
    from repro.engines.base import CostedFunction

    def per_row_cost(values):
        return len(values) * 2.0e-9  # one vectorized pass

    return {
        "__builtin_count": CostedFunction(
            lambda values: len(values), cost_fn=per_row_cost, name="COUNT"
        ),
        "__builtin_sum": CostedFunction(
            lambda values: sum(values), cost_fn=per_row_cost, name="SUM"
        ),
        "__builtin_min": CostedFunction(
            lambda values: min(values), cost_fn=per_row_cost, name="MIN"
        ),
        "__builtin_max": CostedFunction(
            lambda values: max(values), cost_fn=per_row_cost, name="MAX"
        ),
        "__builtin_avg": CostedFunction(
            lambda values: sum(values) / len(values),
            cost_fn=per_row_cost, name="AVG",
        ),
    }


class _ScanRef:
    """Lazy reference to a stored relation (enables pushdown)."""

    def __init__(self, sharded):
        self.sharded = sharded


class S3Relation:
    """A relation whose tuples live as staged S3 objects.

    "Myria can both directly process data stored in HDFS/S3 or ingest
    data into its own internal representation" (Section 2); the
    end-to-end experiments use the direct path ("we read the NumPy
    version of the input data directly from S3", Section 4.3).  Scans
    download each worker's share in parallel; there is no selection
    pushdown into S3 objects, so predicates evaluate after the load.
    """

    def __init__(self, name, schema, bucket, keys, loader, n_workers):
        self.name = name
        self.schema = schema
        self.bucket = bucket
        self.keys = list(keys)
        self.loader = loader
        self.n_workers = n_workers

    def worker_keys(self, worker):
        """This worker's share of the S3 object list."""
        return self.keys[worker::self.n_workers]


class Intermediate:
    """A computed relation held as per-worker shards."""

    def __init__(self, name, columns, shards, on_disk=False):
        self.name = name
        self.columns = list(columns)
        self.shards = shards
        self.on_disk = on_disk

    @property
    def total_rows(self):
        """Rows across all shards."""
        return sum(len(s) for s in self.shards)

    def shard_bytes(self, worker):
        """Nominal bytes held by one worker's shard."""
        return rows_bytes(self.shards[worker])

    def total_bytes(self):
        """Total stored bytes (optionally under a prefix)."""
        return sum(rows_bytes(s) for s in self.shards)


class MyriaServer:
    """The shared-nothing execution engine behind a connection."""

    def __init__(self, cluster, workers_per_node):
        self.cluster = cluster
        self.workers_per_node = int(workers_per_node)
        if self.workers_per_node <= 0:
            raise ValueError("workers_per_node must be positive")
        self.n_workers = cluster.spec.n_nodes * self.workers_per_node
        self.storages = []
        for worker in range(self.n_workers):
            node = self.worker_node(worker)
            self.storages.append(
                WorkerStorage(worker, node, cluster.nodes[node].disk)
            )
        self.catalog = {}
        self.udfs = _make_builtin_udfs()
        self._resident = []  # (node, alloc_id) pinned during a query
        self._stored_this_query = []  # tables STOREd by the running attempt
        self._ops = {}  # statement name -> plan ops, for the running query
        # A worker crash aborts the running statement; the coordinator
        # resubmits the whole query once the node rejoins (Section 2).
        cluster.install_recovery(abort_recovery("myria-restart"))

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def worker_node(self, worker):
        """Cluster node hosting the given worker."""
        return self.cluster.node_order[worker // self.workers_per_node]

    def contention_factor(self):
        """CPU slowdown when workers compete on a node.

        Past half the cores, worker processes contend with each other
        and the JVM/OS for cores and memory bandwidth; calibrated so
        that 4 workers per node is optimal on 8-core nodes (Figure 13).
        """
        cores = self.cluster.spec.node.cores
        w = self.workers_per_node
        over = max(0, w - cores // 2)
        return 1.0 + 1.3 * over / max(1, cores // 2)

    def overlap_factor(self):
        """Within-worker pipelining speedup.

        A Myria worker runs its JVM operator pipeline and its Python
        UDF process concurrently, so one worker keeps up to two cores
        busy (but never more than its fair share of the node).  This is
        why 4 workers saturate an 8-core node (Figure 13) and why Myria
        matches Spark's throughput despite fewer worker slots.
        """
        cores = self.cluster.spec.node.cores
        return min(2.0, cores / self.workers_per_node)

    def cpu_time(self, seconds):
        """Worker-level CPU cost adjusted for overlap and contention."""
        return seconds * self.contention_factor() / self.overlap_factor()

    # ------------------------------------------------------------------
    # Catalog / ingest
    # ------------------------------------------------------------------

    def register_udf(self, name, fn):
        """Register a Python UDF/UDA under a name."""
        self.udfs[name] = fn

    def create_relation(self, name, schema, partition_column):
        """Create an empty sharded relation."""
        sharded = ShardedRelation(name, schema, partition_column, self.n_workers)
        self.catalog[name] = sharded
        for storage in self.storages:
            storage.create_table(name, schema)
        return sharded

    def insert_relation(self, relation, partition_column, op=None):
        """Insert a driver-side relation, hash-partitioned (used by tests
        and small metadata tables)."""
        sharded = self.create_relation(
            relation.name, relation.schema, partition_column
        )
        shards = sharded.shard_rows(relation.rows)
        cm = self.cluster.cost_model
        tasks = []
        for worker, rows in enumerate(shards):
            storage = self.storages[worker]

            def run(storage=storage, rows=rows):
                storage.insert_rows(relation.name, rows)

            nbytes = rows_bytes(rows)
            duration = (
                len(rows) * cm.myria_insert_per_tuple
                + cm.disk_write_time(nbytes) * self.workers_per_node
            )
            tasks.append(
                Task(
                    f"myria-insert-{relation.name}-w{worker}",
                    fn=run,
                    duration=duration,
                    node=self.worker_node(worker),
                    category="myria-ingest",
                    op=op,
                )
            )
        with self.cluster.obs.span(
            f"myria-insert-{relation.name}", category="myria",
        ):
            self.cluster.run(tasks)
        return sharded

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    #: Restart budget for crash recovery: Myria has no mid-query
    #: checkpoints, so a worker crash means resubmitting the whole
    #: query once the node rejoins.
    MAX_QUERY_RESTARTS = 3

    def execute(self, program, mode="pipelined", chunks=1, ops=None):
        """Run a parsed program; returns ``{name: Intermediate}`` for
        every assignment plus stored relations in the catalog.

        ``ops`` names the plan ops each statement realises (see
        :class:`~repro.engines.myria.connection.PlanQuery`): the
        statement's provenance scope opens with its span.  Whatever it
        leaves unnamed -- the submit charge, ``STORE`` -- is recorded
        under the caller's scope.

        A worker-node crash aborts the running statement; the
        coordinator rolls back relations stored by the aborted attempt,
        waits for the node to rejoin, and resubmits the whole query (up
        to :data:`MAX_QUERY_RESTARTS` times).
        """
        if mode not in EXECUTION_MODES:
            raise ValueError(f"mode must be one of {EXECUTION_MODES}, got {mode!r}")
        if mode == "chunked" and chunks < 2:
            raise ValueError("chunked mode requires chunks >= 2")
        if mode != "chunked":
            chunks = 1
        self._ops = ops or {}

        with self.cluster.obs.span(
            "myria-query", category="myria", mode=mode, chunks=chunks,
        ):
            for attempt in range(self.MAX_QUERY_RESTARTS + 1):
                self.cluster.charge_master(
                    self.cluster.cost_model.myria_query_startup,
                    label="Myria query submit",
                    category="myria-coordinator",
                )
                self._stored_this_query = []
                try:
                    try:
                        return self._execute_program(program, mode, chunks)
                    finally:
                        self._release_resident()
                except NodeCrashedError as exc:
                    if attempt >= self.MAX_QUERY_RESTARTS or exc.recover_at is None:
                        raise
                    self._restart_after_crash(exc)

    def _execute_program(self, program, mode, chunks):
        if chunks == 1:
            return self._execute_once(program, mode, chunk=(0, 1))
        merged = {}
        for chunk_index in range(chunks):
            partial = self._execute_once(
                program, "materialized", chunk=(chunk_index, chunks)
            )
            for name, intermediate in partial.items():
                if name not in merged:
                    merged[name] = intermediate
                else:
                    for w in range(self.n_workers):
                        merged[name].shards[w].extend(
                            intermediate.shards[w]
                        )
        return merged

    def _restart_after_crash(self, exc):
        """Roll back the aborted attempt and wait for the node to rejoin."""
        for table in self._stored_this_query:
            self.catalog.pop(table, None)
            for storage in self.storages:
                if storage.has_table(table):
                    storage.drop_table(table)
        if exc.recover_at > self.cluster.now:
            self.cluster.charge_master(
                exc.recover_at - self.cluster.now,
                label="Myria restart wait",
                category="myria-restart",
                op=PSEUDO_RECOVERY,
            )

    #: Safety bound for DO...WHILE loops (a query bug, not a data size,
    #: if an iterative analysis needs more).
    MAX_LOOP_ITERATIONS = 1000

    def _execute_once(self, program, mode, chunk):
        env = {}
        results = {}
        for statement in program.statements:
            self._execute_statement(statement, env, results, mode, chunk)
        return results

    def _execute_statement(self, statement, env, results, mode, chunk):
        from repro.engines.myria.myrial import DoWhile

        if isinstance(statement, Assign):
            if isinstance(statement.source, Scan):
                sharded = self.catalog.get(statement.source.table)
                if sharded is None:
                    raise KeyError(
                        f"unknown relation {statement.source.table!r}"
                    )
                env[statement.name] = _ScanRef(sharded)
            else:
                intermediate = self._run_query(
                    statement.name, statement.source, env, mode, chunk
                )
                env[statement.name] = intermediate
                results[statement.name] = intermediate
        elif isinstance(statement, Store):
            intermediate = env[statement.source]
            if isinstance(intermediate, _ScanRef):
                raise ValueError("STORE of a raw SCAN is not supported")
            self._store(intermediate, statement.table)
        elif isinstance(statement, DoWhile):
            for _iteration in range(self.MAX_LOOP_ITERATIONS):
                for inner in statement.body:
                    self._execute_statement(inner, env, results, mode, chunk)
                condition = env.get(statement.condition)
                if condition is None:
                    raise KeyError(
                        f"WHILE references unknown relation"
                        f" {statement.condition!r}"
                    )
                if isinstance(condition, _ScanRef):
                    raise ValueError("WHILE condition must be computed")
                if condition.total_rows == 0:
                    break
            else:
                raise RuntimeError(
                    f"DO...WHILE exceeded {self.MAX_LOOP_ITERATIONS} iterations"
                )
        else:
            raise TypeError(f"unknown statement {statement!r}")

    # -- query body -------------------------------------------------------

    def _run_query(self, name, query, env, mode, chunk):
        obs = self.cluster.obs
        # A fused statement's own tasks belong to the last op it realises.
        op = self._ops.get(name, (None,))[-1]
        with obs.span(f"myria-{name}", category="myria"), obs.provenance(op):
            return self._run_query_inner(name, query, env, mode, chunk)

    def _run_query_inner(self, name, query, env, mode, chunk):
        join_conditions, selections = split_conditions(query.conditions)

        if len(query.froms) == 1:
            shards, refs = self._resolve_input(
                query.froms[0], env, selections, chunk
            )
            selections_left = [] if self._pushed_down(query.froms[0], env) else selections
        elif len(query.froms) == 2:
            shards, refs = self._join_inputs(
                query.froms, env, join_conditions, selections, chunk
            )
            selections_left = [
                s for f in query.froms
                if not self._pushed_down(f, env)
                for s in selections
                if self._condition_alias(s) == f.name
            ]
        else:
            raise ValueError("queries over more than two relations are not supported")

        # Aggregation?  Implicit group-by when a UDA appears in emits.
        has_uda = any(
            isinstance(e, Emit)
            and isinstance(e.expr, UdfCall)
            and e.expr.kind == "UDA"
            for e in query.emits
        )
        has_unnest = any(isinstance(e, Unnest) for e in query.emits)
        if has_uda and has_unnest:
            raise ValueError("cannot mix UDA and UNNEST in one emit list")

        if has_uda:
            return self._aggregate(name, query, shards, refs, selections_left, mode)
        return self._project(
            name, query, shards, refs, selections_left, mode, flatmap=has_unnest
        )

    def _condition_alias(self, condition):
        for side in (condition.left, condition.right):
            if isinstance(side, Column) and side.alias:
                return side.alias
        return ""

    def _pushed_down(self, from_item, env):
        return isinstance(env.get(from_item.name), _ScanRef)

    def _resolve_input(self, from_item, env, selections, chunk):
        source = env.get(from_item.name)
        if source is None:
            raise KeyError(f"unknown relation alias {from_item.name!r}")
        if isinstance(source, _ScanRef):
            return self._scan_shards(
                from_item.name, source.sharded, selections, chunk
            )
        shards = [list(s) for s in source.shards]
        shards = self._select_chunk(shards, chunk)
        refs = build_column_map(from_item.name, source.columns)
        if source.on_disk:
            self._charge_shard_reads(source)
        return shards, refs

    def _select_chunk(self, shards, chunk):
        index, total = chunk
        if total == 1:
            return shards
        return [s[index::total] for s in shards]

    def _scan_shards(self, alias, sharded, selections, chunk):
        """Parallel storage scan with selection pushdown (Figure 12a)."""
        if isinstance(sharded, S3Relation):
            return self._scan_s3(alias, sharded, selections, chunk)
        cm = self.cluster.cost_model
        refs = build_column_map(alias, sharded.schema.columns)

        applicable = [
            s for s in selections if self._condition_alias(s) in ("", alias)
        ]

        def predicate(row):
            ctx = RowContext(refs, row)
            return all(check_condition(c, ctx, self.udfs) for c in applicable)

        shards = []
        tasks = []
        outputs = [None] * self.n_workers
        for worker in range(self.n_workers):
            storage = self.storages[worker]

            def run(worker=worker, storage=storage):
                rows, scanned, _matched = storage.scan(
                    sharded.name, predicate if applicable else None
                )
                outputs[worker] = (rows, scanned)
                return rows

            def cost(worker=worker, storage=storage):
                rows, scanned = outputs[worker]
                total = storage.row_count(sharded.name) * cm.myria_index_scan_per_tuple
                total += cm.disk_read_time(scanned) * self.workers_per_node
                total += cm.myria_operator_overhead
                return total * 1.0

            tasks.append(
                Task(
                    f"myria-scan-{sharded.name}-w{worker}",
                    fn=run,
                    duration=cost,
                    node=self.worker_node(worker),
                    category="myria-scan",
                )
            )
        results = self.cluster.run(tasks)
        for worker, task in enumerate(tasks):
            shards.append(results[task.task_id].value)
        shards = self._select_chunk(shards, chunk)
        return shards, refs

    def _scan_s3(self, alias, relation, selections, chunk):
        """Parallel S3 scan (no pushdown into opaque staged objects)."""
        cm = self.cluster.cost_model
        store = self.cluster.object_store
        refs = build_column_map(alias, relation.schema.columns)
        applicable = [
            s for s in selections if self._condition_alias(s) in ("", alias)
        ]

        def predicate(row):
            ctx = RowContext(refs, row)
            return all(check_condition(c, ctx, self.udfs) for c in applicable)

        tasks = []
        shards = []
        for worker in range(self.n_workers):
            keys = relation.worker_keys(worker)

            def run(keys=keys):
                rows = [relation.loader(store.get(relation.bucket, k)) for k in keys]
                if applicable:
                    rows = [r for r in rows if predicate(r)]
                return rows

            def cost(keys=keys):
                nbytes = sum(store.size_of(relation.bucket, k) for k in keys)
                # Workers on one node share its S3 bandwidth.
                total = self.cluster.network.s3_download_time(
                    nbytes, n_objects=max(1, len(keys))
                ) * self.workers_per_node
                total += cm.unpickle_time(nbytes)
                total += cm.myria_operator_overhead
                return total

            tasks.append(
                Task(
                    f"myria-s3scan-{relation.name}-w{worker}",
                    fn=run,
                    duration=cost,
                    node=self.worker_node(worker),
                    category="myria-ingest",
                )
            )
        results = self.cluster.run(tasks)
        for task in tasks:
            shards.append(results[task.task_id].value)
        shards = self._select_chunk(shards, chunk)
        return shards, refs

    def _join_inputs(self, froms, env, join_conditions, selections, chunk):
        """Two-way join: broadcast when flagged, else repartition both."""
        if not join_conditions:
            raise ValueError("joins require at least one equi-join condition")
        cm = self.cluster.cost_model

        sides = []
        for from_item in froms:
            shards, refs = self._resolve_input(from_item, env, selections, chunk)
            sides.append((from_item, shards, refs))

        broadcast_side = next(
            (i for i, (f, _s, _r) in enumerate(sides) if f.broadcast), None
        )
        if broadcast_side is not None:
            small = sides[broadcast_side]
            large = sides[1 - broadcast_side]
            small_rows = [row for shard in small[1] for row in shard]
            small_bytes = rows_bytes(small_rows)
            self.cluster.charge_master(
                self.cluster.network.broadcast_time(
                    small_bytes, self.cluster.spec.n_nodes
                ),
                label="Myria broadcast join",
                category="myria-shuffle",
            )
            left_refs = large[2]
            right_refs = build_column_map(
                small[0].name,
                list(self._ref_columns(small[2])),
                offset=len(self._ref_columns(left_refs)),
            )
            joined_shards = [
                hash_join(
                    shard, large[2], small_rows, small[2], join_conditions, self.udfs
                )
                for shard in large[1]
            ]
            refs = dict(left_refs)
            for (alias, col), idx in small[2].items():
                if alias:
                    refs[(alias, col)] = idx + len(self._ref_columns(left_refs))
                    refs.setdefault((
                        "", col), idx + len(self._ref_columns(left_refs)))
            return joined_shards, refs

        # Repartition join: shuffle both sides on the join key.
        left_item, left_shards, left_refs = sides[0]
        right_item, right_shards, right_refs = sides[1]
        left_key_cols, right_key_cols = self._join_key_indices(
            join_conditions, left_item.name, left_refs, right_item.name, right_refs
        )
        left_re = self._shuffle(left_shards, left_key_cols, "join-left")
        right_re = self._shuffle(right_shards, right_key_cols, "join-right")
        n_left_cols = len(self._ref_columns(left_refs))
        joined_shards = [
            hash_join(lrows, left_refs, rrows, right_refs, join_conditions, self.udfs)
            for lrows, rrows in zip(left_re, right_re)
        ]
        refs = dict(left_refs)
        for (alias, col), idx in right_refs.items():
            if alias:
                refs[(alias, col)] = idx + n_left_cols
                refs.setdefault(("", col), idx + n_left_cols)
        return joined_shards, refs

    def _join_key_indices(self, join_conditions, left_alias, left_refs,
                          right_alias, right_refs):
        left_cols, right_cols = [], []
        for condition in join_conditions:
            a, b = condition.left, condition.right
            if a.alias == left_alias:
                left_cols.append(left_refs[(a.alias, a.name)])
                right_cols.append(right_refs[(b.alias, b.name)])
            else:
                left_cols.append(left_refs[(b.alias, b.name)])
                right_cols.append(right_refs[(a.alias, a.name)])
        return left_cols, right_cols

    @staticmethod
    def _ref_columns(refs):
        """Distinct column positions covered by a reference map."""
        return sorted({idx for _key, idx in refs.items()})

    # -- shuffle ---------------------------------------------------------

    def _shuffle(self, shards, key_indices, label, op=None):
        """Hash-repartition shards by key; charges network + (de)serialization."""
        obs = self.cluster.obs
        with obs.span(f"myria-shuffle-{label}", category="myria"), \
                obs.provenance(op):
            return self._shuffle_inner(shards, key_indices, label)

    def _shuffle_inner(self, shards, key_indices, label):
        cm = self.cluster.cost_model
        n_nodes = self.cluster.spec.n_nodes
        remote_fraction = (n_nodes - 1) / n_nodes if n_nodes > 1 else 0.0
        new_shards = [[] for _w in range(self.n_workers)]
        for rows in shards:
            for dest, rows_out in enumerate(shard_by_key(rows, key_indices, self.n_workers)):
                new_shards[dest].extend(rows_out)

        tasks = []
        for worker in range(self.n_workers):
            nbytes = rows_bytes(new_shards[worker])
            # Workers sharing a node also share its NIC during the
            # all-to-all exchange.
            duration = (
                cm.pickle_time(nbytes)
                + self.cluster.network.transfer_time(
                    int(nbytes * remote_fraction), "shuffle-src", "shuffle-dst"
                ) * self.workers_per_node
                + cm.unpickle_time(nbytes)
                + cm.myria_operator_overhead
            )
            tasks.append(
                Task(
                    f"myria-shuffle-{label}-w{worker}",
                    duration=duration,
                    node=self.worker_node(worker),
                    category="myria-shuffle",
                )
            )
        self.cluster.run(tasks)
        return new_shards

    # -- projection / flatmap / aggregation -------------------------------

    def _project(self, name, query, shards, refs, selections, mode, flatmap):
        out_columns = self._output_columns(query)
        tasks = []
        cm = self.cluster.cost_model

        for worker in range(self.n_workers):
            rows = shards[worker]

            def run(worker=worker, rows=rows):
                out = []
                for row in rows:
                    ctx = RowContext(refs, row)
                    if not all(
                        check_condition(c, ctx, self.udfs) for c in selections
                    ):
                        continue
                    if flatmap:
                        out.extend(self._emit_flatmap(query.emits, ctx))
                    else:
                        out.append(self._emit_row(query.emits, ctx))
                return out

            def cost(worker=worker, rows=rows):
                cpu = 0.0
                for row in rows:
                    ctx = RowContext(refs, row)
                    if not all(
                        check_condition(c, ctx, self.udfs) for c in selections
                    ):
                        continue
                    for emit in query.emits:
                        expr = emit.call if isinstance(emit, Unnest) else emit.expr
                        cpu += expression_cost(expr, ctx, self.udfs)
                return self.cpu_time(cpu) + cm.myria_operator_overhead

            tasks.append(
                Task(
                    f"myria-{name}-w{worker}",
                    fn=run,
                    duration=cost,
                    node=self.worker_node(worker),
                    category=f"myria-{name}",
                )
            )
        results = self.cluster.run(tasks)
        out_shards = [results[task.task_id].value for task in tasks]
        intermediate = Intermediate(name, out_columns, out_shards)
        self._account_intermediate(intermediate, mode)
        return intermediate

    def _aggregate(self, name, query, shards, refs, selections, mode):
        """Implicit group-by: shuffle on key columns, then run the UDA."""
        key_emits = [
            e for e in query.emits
            if not (isinstance(e.expr, UdfCall) and e.expr.kind == "UDA")
        ]
        uda_emits = [
            e for e in query.emits
            if isinstance(e.expr, UdfCall) and e.expr.kind == "UDA"
        ]

        # Phase 1: evaluate selections, project (key..., uda-args...).
        pre_shards = []
        for rows in shards:
            out = []
            for row in rows:
                ctx = RowContext(refs, row)
                if not all(check_condition(c, ctx, self.udfs) for c in selections):
                    continue
                key = tuple(evaluate(e.expr, ctx, self.udfs) for e in key_emits)
                args = tuple(
                    tuple(evaluate(a, ctx, self.udfs) for a in e.expr.args)
                    for e in uda_emits
                )
                out.append(key + (args,))
            pre_shards.append(out)

        key_indices = list(range(len(key_emits)))
        # ... and the shuffle feeding its UDA to the first, the group_by.
        shuffled = self._shuffle(
            pre_shards, key_indices, f"groupby-{name}",
            op=self._ops.get(name, (None,))[0],
        )

        out_columns = self._output_columns(query)
        cm = self.cluster.cost_model

        tasks = []
        for worker in range(self.n_workers):
            rows = shuffled[worker]

            def run(worker=worker, rows=rows):
                groups = group_rows(rows, key_indices)
                out = []
                for key, members in groups.items():
                    aggregated = []
                    for uda_index, emit in enumerate(uda_emits):
                        fn = self.udfs[emit.expr.fname]
                        arg_lists = list(zip(*(m[-1][uda_index] for m in members)))
                        aggregated.append(fn(*arg_lists))
                    out.append(tuple(key) + tuple(aggregated))
                return out

            def cost(worker=worker, rows=rows):
                groups = group_rows(rows, key_indices)
                cpu = 0.0
                for _key, members in groups.items():
                    for uda_index, emit in enumerate(uda_emits):
                        fn = self.udfs[emit.expr.fname]
                        arg_lists = list(zip(*(m[-1][uda_index] for m in members)))
                        cpu += fn.cost(*arg_lists)
                return self.cpu_time(cpu) + cm.myria_operator_overhead

            tasks.append(
                Task(
                    f"myria-uda-{name}-w{worker}",
                    fn=run,
                    duration=cost,
                    node=self.worker_node(worker),
                    category=f"myria-{name}",
                )
            )
        results = self.cluster.run(tasks)
        out_shards = [results[task.task_id].value for task in tasks]
        intermediate = Intermediate(name, out_columns, out_shards)
        self._account_intermediate(intermediate, mode)
        return intermediate

    def _emit_row(self, emits, ctx):
        return tuple(evaluate(e.expr, ctx, self.udfs) for e in emits)

    def _emit_flatmap(self, emits, ctx):
        """UNNEST semantics: the PYUDF returns an iterable of tuples;
        any sibling plain emits are appended to every produced row."""
        unnests = [e for e in emits if isinstance(e, Unnest)]
        plains = [e for e in emits if isinstance(e, Emit)]
        if len(unnests) != 1:
            raise ValueError("exactly one UNNEST per emit list is supported")
        produced = evaluate(unnests[0].call, ctx, self.udfs)
        suffix = tuple(evaluate(e.expr, ctx, self.udfs) for e in plains)
        out = []
        for item in produced:
            item = tuple(item) if isinstance(item, (tuple, list)) else (item,)
            if len(item) != len(unnests[0].aliases):
                raise ValueError(
                    f"UNNEST produced arity {len(item)}, expected"
                    f" {len(unnests[0].aliases)}"
                )
            out.append(item + suffix)
        return out

    def _output_columns(self, query):
        columns = []
        for index, emit in enumerate(query.emits):
            if isinstance(emit, Unnest):
                columns.extend(emit.aliases)
            elif emit.alias:
                columns.append(emit.alias)
            elif isinstance(emit.expr, Column):
                columns.append(emit.expr.name)
            else:
                columns.append(f"col{index}")
        return columns

    # -- memory / materialization accounting -------------------------------

    def _account_intermediate(self, intermediate, mode):
        cm = self.cluster.cost_model
        if mode == "pipelined":
            # Intermediates stay resident until the query finishes.
            for worker in range(self.n_workers):
                nbytes = intermediate.shard_bytes(worker)
                if nbytes == 0:
                    continue
                node = self.cluster.node(self.worker_node(worker))
                alloc = node.memory.allocate(
                    nbytes, f"pipelined-{intermediate.name}"
                )
                self._resident.append((node, alloc))
        else:
            # Materialize to local disk: charge parallel writes.
            intermediate.on_disk = True
            tasks = []
            for worker in range(self.n_workers):
                nbytes = intermediate.shard_bytes(worker)
                tasks.append(
                    Task(
                        f"myria-materialize-{intermediate.name}-w{worker}",
                        duration=cm.disk_write_time(nbytes) * self.workers_per_node,
                        node=self.worker_node(worker),
                        category="myria-materialize",
                    )
                )
            self.cluster.run(tasks)

    def _charge_shard_reads(self, intermediate):
        cm = self.cluster.cost_model
        tasks = []
        for worker in range(self.n_workers):
            nbytes = intermediate.shard_bytes(worker)
            tasks.append(
                Task(
                    f"myria-read-{intermediate.name}-w{worker}",
                    duration=cm.disk_read_time(nbytes) * self.workers_per_node,
                    node=self.worker_node(worker),
                    category="myria-materialize",
                )
            )
        self.cluster.run(tasks)

    def _release_resident(self):
        for node, alloc in self._resident:
            node.memory.free(alloc)
        self._resident.clear()

    # -- store ------------------------------------------------------------

    def _store(self, intermediate, table):
        schema = Schema(intermediate.columns)
        partition_column = intermediate.columns[0]
        sharded = ShardedRelation(table, schema, partition_column, self.n_workers)
        self.catalog[table] = sharded
        self._stored_this_query.append(table)
        cm = self.cluster.cost_model
        all_rows = [row for shard in intermediate.shards for row in shard]
        shards = sharded.shard_rows(all_rows)
        tasks = []
        for worker, rows in enumerate(shards):
            storage = self.storages[worker]
            if not storage.has_table(table):
                storage.create_table(table, schema)

            def run(storage=storage, rows=rows):
                storage.insert_rows(table, rows)

            nbytes = rows_bytes(rows)
            tasks.append(
                Task(
                    f"myria-store-{table}-w{worker}",
                    fn=run,
                    duration=(
                        len(rows) * cm.myria_insert_per_tuple
                        + cm.disk_write_time(nbytes) * self.workers_per_node
                    ),
                    node=self.worker_node(worker),
                    category="myria-store",
                )
            )
        self.cluster.run(tasks)
