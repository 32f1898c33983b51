"""Client API for miniMyria: ``MyriaConnection`` and ``MyriaQuery``.

Mirrors the usage in the paper's Figure 7:

.. code-block:: python

    conn = MyriaConnection(cluster)
    conn.create_function("Denoise", denoise_udf)
    query = MyriaQuery.submit(conn, '''
        T1 = SCAN(Images); ...
    ''', op=PSEUDO_OVERHEAD)

Every call that makes tasks or charges names the op they are charged
to: a lowering passes its plan's provenance id, user code with no plan
writes ``PSEUDO_OVERHEAD``.
"""

from repro.engines.base import Engine, as_costed
from repro.engines.myria.myrial import parse
from repro.engines.myria.plan import MyriaServer, S3Relation
from repro.engines.myria.relation import Relation, Schema
from repro.obs.spans import PSEUDO_OVERHEAD

#: The paper's tuned optimum: "four workers per node yields the best
#: results" (Section 5.3.1, Figure 13).
DEFAULT_WORKERS_PER_NODE = 4


class MyriaConnection(Engine):
    """A connection to a miniMyria deployment on a simulated cluster."""

    name = "Myria"

    def __init__(self, cluster, workers_per_node=DEFAULT_WORKERS_PER_NODE):
        super().__init__(cluster)
        self.server = MyriaServer(cluster, workers_per_node)

    def startup_cost(self):
        # Myria is a long-running service; per-query submission costs are
        # charged by the server instead.
        """One-time engine startup in simulated seconds."""
        return 0.0

    # ------------------------------------------------------------------
    # Functions and relations
    # ------------------------------------------------------------------

    def create_function(self, name, fn):
        """Register a Python UDF or UDA under ``name`` (Figure 7 line 2)."""
        self.server.register_udf(name, as_costed(fn))

    def ingest_relation(self, relation, partition_column, *, op):
        """Ingest a driver-side :class:`Relation` (small tables); ``op``
        is the logical op the insert tasks are charged to."""
        return self.server.insert_relation(relation, partition_column, op=op)

    def register_s3_relation(self, table, bucket, columns, loader, prefix="",
                             keys=None):
        """Expose staged S3 objects as a scannable relation without
        ingesting them (the end-to-end path of Section 4.3).

        ``keys`` restricts the relation to an explicit object list --
        Myria "can directly work with a csv list of files", so callers
        that know which files matter (e.g. one sky band's exposures)
        hand over just those.
        """
        store = self.cluster.s3
        if keys is None:
            keys = store.list_keys(bucket, prefix)
        if not keys:
            raise ValueError(f"no objects under s3://{bucket}/{prefix}")
        relation = S3Relation(
            table, Schema(columns), bucket, keys, loader, self.server.n_workers
        )
        self.server.catalog[table] = relation
        return relation

    def ingest_s3(self, table, bucket, columns, loader, partition_column,
                  prefix="", *, op):
        """Parallel S3 ingest into per-worker PostgreSQL storage.

        Each worker downloads its share of the object list directly --
        "Myria can directly work with a csv list of files avoiding
        overhead" (Section 5.2.1), so unlike Spark no master-side
        listing cost is charged.  ``loader`` maps a stored object to a
        row tuple; ``op`` is the logical op (the plan's scan) the ingest
        tasks are charged to.
        """
        store = self.cluster.s3
        keys = store.list_keys(bucket, prefix)
        if not keys:
            raise ValueError(f"no objects under s3://{bucket}/{prefix}")
        server = self.server
        sharded = server.create_relation(table, Schema(columns), partition_column)

        def download(worker):
            group = keys[worker::server.n_workers]
            rows = [loader(store.get(bucket, key)) for key in group]
            nbytes = sum(store.size_of(bucket, key) for key in group)
            seconds = self.cluster.network.s3_download_time(
                nbytes, n_objects=max(1, len(group))
            ) * server.workers_per_node
            return rows, seconds

        server.insert_shards(
            table, f"myria-ingest-{table}", "myria-ingest", download, op=op
        )
        return sharded


class MyriaQuery:
    """A submitted MyriaL query and its results."""

    def __init__(self, connection, results, op):
        self.connection = connection
        self.results = results
        self.op = op

    @classmethod
    def submit(cls, connection, text, mode="pipelined", ops=None, *, op):
        """Parse and execute MyriaL ``text``; returns a MyriaQuery.

        ``mode`` selects the memory-management strategy of Figure 15
        ("pipelined" or "materialized").  ``ops`` is a
        :class:`PlanQuery`'s statement -> plan-op association; the
        submit charge, ``STORE``, every statement ``ops`` does not name
        and the query's collects are charged to ``op``.
        """
        program = parse(text)
        results = connection.server.execute(program, mode=mode, ops=ops, op=op)
        return cls(connection, results, op)

    def relation(self, name):
        """Gather one result as a driver-side :class:`Relation`.

        Charges the network cost of collecting shards at the
        coordinator.
        """
        intermediate = self.results[name]
        cluster = self.connection.cluster
        total = intermediate.total_bytes()
        cluster.charge_master(
            cluster.cost_model.unpickle_time(total)
            + cluster.network.transfer_time(total, "workers", "coordinator"),
            label="Myria collect",
            category="myria-coordinator",
            op=self.op,
        )
        rows = [row for shard in intermediate.shards for row in shard]
        return Relation(name, Schema(intermediate.columns), rows)

    def shards(self, name):
        """Per-worker shards left in place (worker-memory materialization)."""
        return self.results[name].shards


class PlanQuery:
    """MyriaL emitted from a logical plan, by a lowering.

    Built from statements ``(op_ids, line, ...)``: the MyriaL lines of
    one statement preceded by the ids of the plan ops it realises, in
    plan order (a bare string is a statement that realises none --
    ``SCAN``, ``STORE``).  ``text`` is the program; ``ops`` maps each
    statement name to its ops' provenance ids.  A statement's tasks are
    attributed to the *last* op of its fused chain (``Masks`` =
    mean_b0+otsu -> otsu) and the shuffle feeding its UDA to the
    *first*, the ``group_by`` itself.  What no statement claims -- the
    submit, ``STORE``, collects -- is the coordinator's ``@overhead``.
    """

    def __init__(self, plan, *statements):
        lines = []
        self.ops = {}
        for statement in statements:
            if isinstance(statement, str):
                lines.append(statement)
                continue
            op_ids, *text = statement
            lines.extend(text)
            name = text[0].split(" = ")[0]
            self.ops[name] = tuple(plan.provenance(op) for op in op_ids)
        self.text = "\n".join(["", *lines, ""])

    def submit(self, connection, **options):
        """Run the query with every statement attributed to its op."""
        return MyriaQuery.submit(
            connection, self.text, ops=self.ops, op=PSEUDO_OVERHEAD, **options
        )
