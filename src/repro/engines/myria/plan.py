"""Physical query execution for miniMyria.

A parsed MyriaL :class:`~repro.engines.myria.myrial.Program` executes
statement by statement across the workers.  Two execution modes model
the memory-management trade-off of Section 5.3.2 / Figure 15:

- ``"pipelined"`` -- intermediates stay in worker memory for the whole
  query (fastest; fails with :class:`OutOfMemoryError` when the data
  outgrows the cluster).
- ``"materialized"`` -- every statement's output is written to local
  disk and read back by the next (8-11% slower in the paper).

Figure 15's third bar, the input processed in pieces (15-23% slower;
survives the largest inputs), is a series of materialized queries over
bands of the sky: ``mode="multiquery"`` of the astronomy lowering's
``run``.

Every per-worker step runs through :meth:`MyriaServer.run_workers`,
which prices each task in the pass that computes it.  Worker-per-node
contention reproduces Figure 13: more workers increase parallelism
until they compete for cores, memory bandwidth and disk.
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

EXECUTION_MODES = ("pipelined", "materialized")


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
        """Nominal bytes held across all workers' shards."""
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

    def run_workers(self, label, category, work, *, op):
        """One task per worker, pinned to its node, named
        ``<label>-w<worker>`` and charged to ``op``, all in one
        ``cluster.run``.

        ``work(worker)`` returns ``(value, seconds)``: the task's value
        and its price, computed in one pass.  Returns the values in
        worker order.
        """
        tasks = []
        for worker in range(self.n_workers):
            cell = {}

            def run(worker=worker, cell=cell):
                value, cell["seconds"] = work(worker)
                return value

            tasks.append(
                Task(
                    f"{label}-w{worker}",
                    fn=run,
                    duration=lambda cell=cell: cell["seconds"],
                    node=self.worker_node(worker),
                    category=category,
                    op=op,
                )
            )
        results = self.cluster.run(tasks)
        return [results[task.task_id].value for task in tasks]

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

    def insert_shards(self, table, label, category, fetch, *, op):
        """Each worker appends rows to its shard of ``table``: the one
        insert path of ingest, driver-side inserts and ``STORE``.

        ``fetch(worker)`` returns ``(rows, seconds)``, the worker's rows
        and what obtaining them costs; each row then costs one insert
        and its bytes' share of the node's disk bandwidth.
        """
        cm = self.cluster.cost_model

        def work(worker):
            rows, seconds = fetch(worker)
            n_rows, nbytes = self.storages[worker].insert_rows(table, rows)
            seconds += n_rows * cm.myria_insert_per_tuple
            seconds += cm.disk_write_time(nbytes) * self.workers_per_node
            return rows, seconds

        return self.run_workers(label, category, work, op=op)

    def insert_relation(self, relation, partition_column, *, op):
        """Insert a driver-side relation, hash-partitioned (used by tests
        and small metadata tables)."""
        sharded = self.create_relation(
            relation.name, relation.schema, partition_column
        )
        shards = sharded.shard_rows(relation.rows)
        label = f"myria-insert-{relation.name}"
        with self.cluster.obs.span(label, category="myria"):
            self.insert_shards(
                relation.name, label, "myria-ingest",
                lambda worker: (shards[worker], 0.0), op=op,
            )
        return sharded

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    #: Restart budget for crash recovery: Myria has no mid-query
    #: checkpoints, so a worker crash means resubmitting the whole
    #: query once the node rejoins.
    MAX_QUERY_RESTARTS = 3

    def execute(self, program, mode="pipelined", ops=None, *, op):
        """Run a parsed program; returns ``{name: Intermediate}`` for
        every assignment plus stored relations in the catalog.

        ``ops`` names the plan ops each statement realises (see
        :class:`~repro.engines.myria.connection.PlanQuery`); each
        statement passes its own to every task and charge it makes.
        Whatever ``ops`` leaves unnamed -- the submit charge, ``STORE``,
        a statement it does not list -- is charged to ``op``.

        A worker-node crash aborts the running statement; the
        coordinator rolls back relations stored by the aborted attempt,
        waits for the node to rejoin, and resubmits the whole query (up
        to :data:`MAX_QUERY_RESTARTS` times).
        """
        if mode not in EXECUTION_MODES:
            raise ValueError(f"mode must be one of {EXECUTION_MODES}, got {mode!r}")
        self._ops = ops or {}

        with self.cluster.obs.span("myria-query", category="myria", mode=mode):
            for attempt in range(self.MAX_QUERY_RESTARTS + 1):
                self.cluster.charge_master(
                    self.cluster.cost_model.myria_query_startup,
                    label="Myria query submit",
                    category="myria-coordinator",
                    op=op,
                )
                self._stored_this_query = []
                try:
                    try:
                        return self._execute_program(program, mode, op)
                    finally:
                        self._release_resident()
                except NodeCrashedError as exc:
                    if attempt >= self.MAX_QUERY_RESTARTS or exc.recover_at is None:
                        raise
                    self._restart_after_crash(exc)

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

    def _execute_program(self, program, mode, op):
        env = {}
        results = {}
        for statement in program.statements:
            self._execute_statement(statement, env, results, mode, op)
        return results

    def _execute_statement(self, statement, env, results, mode, op):
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
                    statement.name, statement.source, env, mode, op
                )
                env[statement.name] = intermediate
                results[statement.name] = intermediate
        elif isinstance(statement, Store):
            intermediate = env[statement.source]
            if isinstance(intermediate, _ScanRef):
                raise ValueError("STORE of a raw SCAN is not supported")
            self._store(intermediate, statement.table, op)
        elif isinstance(statement, DoWhile):
            for _iteration in range(self.MAX_LOOP_ITERATIONS):
                for inner in statement.body:
                    self._execute_statement(inner, env, results, mode, op)
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

    def _run_query(self, name, query, env, mode, op):
        # The plan ops the statement realises; one it does not name runs
        # under the query's ``op``.
        ops = self._ops.get(name, (op,))
        with self.cluster.obs.span(f"myria-{name}", category="myria"):
            return self._run_query_inner(name, query, env, mode, ops)

    def _run_query_inner(self, name, query, env, mode, ops):
        # A fused statement's own tasks belong to the last op it
        # realises; the shuffle feeding its UDA to the first.
        op = ops[-1]
        join_conditions, selections = split_conditions(query.conditions)

        if len(query.froms) == 1:
            shards, refs = self._resolve_input(
                query.froms[0], env, selections, op
            )
            selections_left = [] if self._pushed_down(query.froms[0], env) else selections
        elif len(query.froms) == 2:
            shards, refs = self._join_inputs(
                query.froms, env, join_conditions, selections, op
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
            out_shards = self._aggregate(
                name, query, shards, refs, selections_left, ops
            )
        else:
            out_shards = self._project(
                name, query, shards, refs, selections_left, has_unnest, op
            )
        intermediate = Intermediate(name, self._output_columns(query), out_shards)
        self._account_intermediate(intermediate, mode, op)
        return intermediate

    def _condition_alias(self, condition):
        for side in (condition.left, condition.right):
            if isinstance(side, Column) and side.alias:
                return side.alias
        return ""

    def _pushed_down(self, from_item, env):
        return isinstance(env.get(from_item.name), _ScanRef)

    def _resolve_input(self, from_item, env, selections, op):
        source = env.get(from_item.name)
        if source is None:
            raise KeyError(f"unknown relation alias {from_item.name!r}")
        if isinstance(source, _ScanRef):
            return self._scan_shards(
                from_item.name, source.sharded, selections, op
            )
        shards = [list(s) for s in source.shards]
        refs = build_column_map(from_item.name, source.columns)
        if source.on_disk:
            self._charge_shard_reads(source, op)
        return shards, refs

    def _pushdown(self, alias, refs, selections):
        """Row predicate of the selections on ``alias``, or ``None``."""
        applicable = [
            s for s in selections if self._condition_alias(s) in ("", alias)
        ]
        if not applicable:
            return None

        def predicate(row):
            return self._passes(RowContext(refs, row), applicable)

        return predicate

    def _passes(self, ctx, selections):
        return all(check_condition(c, ctx, self.udfs) for c in selections)

    def _scan_shards(self, alias, sharded, selections, op):
        """Parallel storage scan with selection pushdown (Figure 12a)."""
        refs = build_column_map(alias, sharded.schema.columns)
        predicate = self._pushdown(alias, refs, selections)
        if isinstance(sharded, S3Relation):
            return self._scan_s3(sharded, predicate, op), refs
        cm = self.cluster.cost_model

        def work(worker):
            storage = self.storages[worker]
            rows, scanned, _matched = storage.scan(sharded.name, predicate)
            seconds = storage.row_count(sharded.name) * cm.myria_index_scan_per_tuple
            seconds += cm.disk_read_time(scanned) * self.workers_per_node
            seconds += cm.myria_operator_overhead
            return rows, seconds

        return self.run_workers(
            f"myria-scan-{sharded.name}", "myria-scan", work, op=op
        ), refs

    def _scan_s3(self, relation, predicate, op):
        """Parallel S3 scan (no pushdown into opaque staged objects)."""
        cm = self.cluster.cost_model
        store = self.cluster.s3

        def work(worker):
            keys = relation.worker_keys(worker)
            rows = [relation.loader(store.get(relation.bucket, k)) for k in keys]
            if predicate is not None:
                rows = [r for r in rows if predicate(r)]
            nbytes = sum(store.size_of(relation.bucket, k) for k in keys)
            # Workers on one node share its S3 bandwidth.
            seconds = self.cluster.network.s3_download_time(
                nbytes, n_objects=max(1, len(keys))
            ) * self.workers_per_node
            seconds += cm.unpickle_time(nbytes)
            seconds += cm.myria_operator_overhead
            return rows, seconds

        return self.run_workers(
            f"myria-s3scan-{relation.name}", "myria-ingest", work, op=op
        )

    def _join_inputs(self, froms, env, join_conditions, selections, op):
        """Two-way join: broadcast when flagged, else repartition both."""
        if not join_conditions:
            raise ValueError("joins require at least one equi-join condition")

        sides = []
        for from_item in froms:
            shards, refs = self._resolve_input(from_item, env, selections, op)
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
                op=op,
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
        left_re = self._shuffle(left_shards, left_key_cols, "join-left", op)
        right_re = self._shuffle(right_shards, right_key_cols, "join-right", op)
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

    def _shuffle(self, shards, key_indices, label, op):
        """Hash-repartition shards by key; charges network +
        (de)serialization to ``op``."""
        with self.cluster.obs.span(f"myria-shuffle-{label}", category="myria"):
            return self._shuffle_inner(shards, key_indices, label, op)

    def _shuffle_inner(self, shards, key_indices, label, op):
        cm = self.cluster.cost_model
        n_nodes = self.cluster.spec.n_nodes
        remote_fraction = (n_nodes - 1) / n_nodes if n_nodes > 1 else 0.0
        new_shards = [[] for _w in range(self.n_workers)]
        for rows in shards:
            for dest, rows_out in enumerate(shard_by_key(rows, key_indices, self.n_workers)):
                new_shards[dest].extend(rows_out)

        # Priced before the run: the exchange's traffic is tallied by
        # the network model as it is priced.
        seconds = []
        for rows in new_shards:
            nbytes = rows_bytes(rows)
            # Workers sharing a node also share its NIC during the
            # all-to-all exchange.
            seconds.append(
                cm.pickle_time(nbytes)
                + self.cluster.network.transfer_time(
                    int(nbytes * remote_fraction), "shuffle-src", "shuffle-dst"
                ) * self.workers_per_node
                + cm.unpickle_time(nbytes)
                + cm.myria_operator_overhead
            )
        self.run_workers(
            f"myria-shuffle-{label}", "myria-shuffle",
            lambda worker: (None, seconds[worker]), op=op,
        )
        return new_shards

    # -- projection / flatmap / aggregation -------------------------------

    def _project(self, name, query, shards, refs, selections, flatmap, op):
        cm = self.cluster.cost_model

        def work(worker):
            out = []
            cpu = 0.0
            for row in shards[worker]:
                ctx = RowContext(refs, row)
                if not self._passes(ctx, selections):
                    continue
                if flatmap:
                    out.extend(self._emit_flatmap(query.emits, ctx))
                else:
                    out.append(self._emit_row(query.emits, ctx))
                for emit in query.emits:
                    expr = emit.call if isinstance(emit, Unnest) else emit.expr
                    cpu += expression_cost(expr, ctx, self.udfs)
            return out, self.cpu_time(cpu) + cm.myria_operator_overhead

        return self.run_workers(f"myria-{name}", f"myria-{name}", work, op=op)

    def _aggregate(self, name, query, shards, refs, selections, ops):
        """Implicit group-by: shuffle on key columns (charged to the
        first of ``ops``, the group_by), then run the UDA (the last)."""
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
                if not self._passes(ctx, selections):
                    continue
                key = tuple(evaluate(e.expr, ctx, self.udfs) for e in key_emits)
                args = tuple(
                    tuple(evaluate(a, ctx, self.udfs) for a in e.expr.args)
                    for e in uda_emits
                )
                out.append(key + (args,))
            pre_shards.append(out)

        key_indices = list(range(len(key_emits)))
        shuffled = self._shuffle(
            pre_shards, key_indices, f"groupby-{name}", ops[0]
        )

        cm = self.cluster.cost_model

        def work(worker):
            out = []
            cpu = 0.0
            for key, members in group_rows(shuffled[worker], key_indices).items():
                aggregated = []
                for uda_index, emit in enumerate(uda_emits):
                    fn = self.udfs[emit.expr.fname]
                    arg_lists = list(zip(*(m[-1][uda_index] for m in members)))
                    aggregated.append(fn(*arg_lists))
                    cpu += fn.cost(*arg_lists)
                out.append(tuple(key) + tuple(aggregated))
            return out, self.cpu_time(cpu) + cm.myria_operator_overhead

        return self.run_workers(
            f"myria-uda-{name}", f"myria-{name}", work, op=ops[-1]
        )

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

    def _account_intermediate(self, intermediate, mode, op):
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
            self.run_workers(
                f"myria-materialize-{intermediate.name}", "myria-materialize",
                lambda worker: (None, cm.disk_write_time(
                    intermediate.shard_bytes(worker)
                ) * self.workers_per_node),
                op=op,
            )

    def _charge_shard_reads(self, intermediate, op):
        cm = self.cluster.cost_model
        self.run_workers(
            f"myria-read-{intermediate.name}", "myria-materialize",
            lambda worker: (None, cm.disk_read_time(
                intermediate.shard_bytes(worker)
            ) * self.workers_per_node),
            op=op,
        )

    def _release_resident(self):
        for node, alloc in self._resident:
            node.memory.free(alloc)
        self._resident.clear()

    # -- store ------------------------------------------------------------

    def _store(self, intermediate, table, op):
        schema = Schema(intermediate.columns)
        partition_column = intermediate.columns[0]
        sharded = ShardedRelation(table, schema, partition_column, self.n_workers)
        self.catalog[table] = sharded
        self._stored_this_query.append(table)
        all_rows = [row for shard in intermediate.shards for row in shard]
        shards = sharded.shard_rows(all_rows)
        for storage in self.storages:
            if not storage.has_table(table):
                storage.create_table(table, schema)
        self.insert_shards(
            table, f"myria-store-{table}", "myria-store",
            lambda worker: (shards[worker], 0.0), op=op,
        )
