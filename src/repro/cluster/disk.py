"""Per-node local disk model (the 160 GB SSD of an r3.2xlarge).

Used for Myria's PostgreSQL-backed storage: each shard is an entry
keyed by path, sized in nominal bytes for capacity accounting.  A node
crash wipes the disk; Myria's rollback then deletes what the aborted
query stored.
"""

from repro.cluster.errors import DiskFullError


class LocalDisk:
    """A node's local SSD: a byte-budgeted key-value store."""

    def __init__(self, node, capacity_bytes):
        if capacity_bytes <= 0:
            raise ValueError("disk capacity must be positive")
        self.node = node
        self.capacity_bytes = int(capacity_bytes)
        self._files = {}
        self._wiped_paths = set()
        self.bytes_written = 0
        self.bytes_read = 0

    @property
    def used_bytes(self):
        """Bytes currently accounted as in use."""
        return sum(size for _value, size in self._files.values())

    @property
    def available_bytes(self):
        """Bytes still free under the capacity."""
        return self.capacity_bytes - self.used_bytes

    def write(self, path, value, nbytes):
        """Store ``value`` under ``path`` occupying ``nbytes``.

        Overwriting an existing path first releases its old space.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"cannot write negative bytes: {nbytes}")
        released = self._files[path][1] if path in self._files else 0
        if nbytes - released > self.available_bytes:
            raise DiskFullError(self.node, nbytes, self.available_bytes + released)
        self._files[path] = (value, nbytes)
        self.bytes_written += nbytes

    def size_of(self, path):
        """Stored size in bytes of one entry."""
        return self._files[path][1]

    def delete(self, path):
        """Remove one entry; raises ``KeyError`` when absent.

        Entries destroyed by a node crash (:meth:`wipe`) may still be
        deleted by surviving owners; those deletes are silent no-ops.
        """
        if path not in self._files:
            if path in self._wiped_paths:
                self._wiped_paths.discard(path)
                return
            raise KeyError(f"no such file on {self.node!r}: {path}")
        del self._files[path]

    def wipe(self):
        """Destroy all contents, as a disk-losing node crash does.

        Remembers the destroyed paths so late :meth:`delete` calls from
        surviving owners succeed silently.  Returns bytes lost.
        """
        lost = self.used_bytes
        self._wiped_paths.update(self._files)
        self._files.clear()
        return lost
