"""Per-worker PostgreSQL-like local storage.

"Myria uses the relational data model and PostgreSQL as its node-local
storage subsystem." (Section 2.)  Relations are hash-partitioned across
workers; each worker's shard lives on its node's simulated disk.  The
storage layer supports *selection pushdown* on scalar columns: "Myria
pushes the selection down to PostgreSQL, which efficiently scans the
data and returns only the matching records" (Section 5.2.2) -- the
reason Myria wins the filter microbenchmark of Figure 12a.
"""

from repro.engines.base import nominal_bytes_of
from repro.engines.spark.partitioner import stable_hash


class WorkerStorage:
    """One worker's PostgreSQL instance (a shard store on local disk)."""

    def __init__(self, worker_id, node, disk):
        self.worker_id = worker_id
        self.node = node
        self.disk = disk
        self._tables = {}
        #: table name -> nominal bytes of its rows, kept as rows arrive.
        self._bytes = {}

    def create_table(self, name, schema):
        """Create an empty shard for a relation."""
        self._tables[name] = (schema, [])
        self._bytes[name] = 0
        self.disk.write(self._path(name), 0)

    def insert_rows(self, name, rows):
        """Append rows to a shard; returns (n_rows, nominal_bytes).

        Only the new rows are sized: the shard's total is a running sum.
        """
        schema, existing = self._tables[name]
        existing.extend(rows)
        nbytes = sum(nominal_bytes_of(r) for r in rows)
        self._bytes[name] += nbytes
        self.disk.write(self._path(name), self._bytes[name])
        return len(rows), nbytes

    def has_table(self, name):
        """Whether this worker stores the named shard."""
        return name in self._tables

    def row_count(self, name):
        """Rows currently in this worker's shard."""
        return len(self._tables[name][1])

    def shard_bytes(self, name):
        """Nominal bytes held by one worker's shard."""
        return self.disk.size_of(self._path(name))

    def scan(self, name, predicate=None):
        """Read the shard, optionally filtering with a row predicate.

        Returns ``(rows, scanned_bytes, matched_bytes)``: with a
        predicate, the scalar columns are index-scanned and only
        matching rows' blob bytes are read from disk (pushdown); without
        one, the full shard is read.
        """
        schema, rows = self._tables[name]
        if predicate is None:
            nbytes = self.shard_bytes(name)
            self.disk.bytes_read += nbytes
            return list(rows), nbytes, nbytes
        matching = [r for r in rows if predicate(r)]
        matched_bytes = sum(nominal_bytes_of(r) for r in matching)
        self.disk.bytes_read += matched_bytes
        return matching, matched_bytes, matched_bytes

    def drop_table(self, name):
        """Delete a shard from this worker."""
        del self._tables[name]
        del self._bytes[name]
        self.disk.delete(self._path(name))

    def _path(self, name):
        return f"myria/worker{self.worker_id}/{name}"


class ShardedRelation:
    """Catalog entry: a relation hash-partitioned across all workers."""

    def __init__(self, name, schema, partition_column, n_workers):
        self.name = name
        self.schema = schema
        self.partition_column = partition_column
        self.n_workers = n_workers

    def worker_for(self, row):
        """Owning worker of one row (hash partitioning)."""
        idx = self.schema.index_of(self.partition_column)
        return stable_hash(row[idx]) % self.n_workers

    def shard_rows(self, rows):
        """Split rows into per-worker shards by the partition column."""
        shards = [[] for _worker in range(self.n_workers)]
        for row in rows:
            shards[self.worker_for(row)].append(row)
        return shards

    def __repr__(self):
        return (
            f"ShardedRelation({self.name!r}, partitioned by"
            f" {self.partition_column!r} over {self.n_workers} workers)"
        )
