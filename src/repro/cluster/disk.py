"""Per-node local disk model (the 160 GB SSD of an r3.2xlarge).

Used for Myria's PostgreSQL-backed storage: each shard is an entry
keyed by path, sized in nominal bytes for capacity accounting.  The
disk keeps sizes only; the rows stay with their owner
(``engines/myria/storage.WorkerStorage``).  A node crash wipes the
disk; Myria's rollback then deletes what the aborted query stored.
"""

from repro.cluster.errors import DiskFullError


class LocalDisk:
    """A node's local SSD: a byte budget over named entries."""

    def __init__(self, node, capacity_bytes):
        if capacity_bytes <= 0:
            raise ValueError("disk capacity must be positive")
        self.node = node
        self.capacity_bytes = int(capacity_bytes)
        #: path -> bytes the entry occupies.
        self._sizes = {}
        #: Bytes currently accounted as in use: the sum of ``_sizes``.
        self.used_bytes = 0
        self._wiped_paths = set()
        self.bytes_written = 0
        self.bytes_read = 0

    @property
    def available_bytes(self):
        """Bytes still free under the capacity."""
        return self.capacity_bytes - self.used_bytes

    def write(self, path, nbytes):
        """Make ``path`` occupy ``nbytes``.

        Overwriting an existing path first releases its old space.  A
        path written again after a wipe is a live entry: deleting it
        twice raises like any other path.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"cannot write negative bytes: {nbytes}")
        released = self._sizes.get(path, 0)
        if nbytes - released > self.available_bytes:
            raise DiskFullError(self.node, nbytes, self.available_bytes + released)
        self._sizes[path] = nbytes
        self._wiped_paths.discard(path)
        self.used_bytes += nbytes - released
        self.bytes_written += nbytes

    def size_of(self, path):
        """Stored size in bytes of one entry."""
        return self._sizes[path]

    def delete(self, path):
        """Remove one entry; raises ``KeyError`` when absent.

        Entries destroyed by a node crash (:meth:`wipe`) may still be
        deleted by surviving owners; those deletes are silent no-ops.
        """
        if path not in self._sizes:
            if path in self._wiped_paths:
                self._wiped_paths.discard(path)
                return
            raise KeyError(f"no such file on {self.node!r}: {path}")
        self.used_bytes -= self._sizes.pop(path)

    def wipe(self):
        """Destroy all contents, as a disk-losing node crash does.

        Remembers the destroyed paths so late :meth:`delete` calls from
        surviving owners succeed silently.  Returns bytes lost.
        """
        lost = self.used_bytes
        self._wiped_paths.update(self._sizes)
        self._sizes.clear()
        self.used_bytes = 0
        return lost
