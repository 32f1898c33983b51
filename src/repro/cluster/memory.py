"""Per-node memory accounting.

Section 5.3.2 of the paper: "Image analytics workloads are memory
intensive. ... image analytics pipelines can easily experience
out-of-memory failures."  The tracker lets engines model their distinct
responses: Myria's pipelined execution fails the query, Spark spills to
disk, Dask keeps results on the producing worker.
"""

from repro.cluster.clock import VirtualClock
from repro.cluster.errors import OutOfMemoryError


class MemoryTracker:
    """Tracks resident bytes on one node and enforces its capacity.

    ``history`` holds one ``(virtual time, signed bytes)`` step per
    change of the level, stamped on ``clock`` (the cluster's; a
    standalone tracker stays at 0.0): the memory counter tracks of the
    Chrome trace are its running sum.
    """

    def __init__(self, node, capacity_bytes, clock=None):
        if capacity_bytes <= 0:
            raise ValueError("memory capacity must be positive")
        self.node = node
        self.capacity_bytes = int(capacity_bytes)
        self._allocations = {}
        self._used = 0  # the sum of _allocations, kept as it changes
        self._wiped_ids = set()
        self._next_id = 0
        self.peak_bytes = 0
        self.oom_count = 0
        self.spilled_bytes = 0
        self.history = []
        self._clock = clock if clock is not None else VirtualClock()

    @property
    def used_bytes(self):
        """Bytes currently accounted as in use."""
        return self._used

    @property
    def available_bytes(self):
        """Bytes still free under the capacity."""
        return self.capacity_bytes - self._used

    def allocate(self, nbytes, label=""):
        """Reserve ``nbytes``; returns an allocation id for :meth:`free`.

        Raises :class:`OutOfMemoryError` when the node cannot hold the
        allocation.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"cannot allocate negative bytes: {nbytes}")
        if nbytes > self.available_bytes:
            self.record_oom()
            raise OutOfMemoryError(self.node, nbytes, self.available_bytes, label)
        alloc_id = self._next_id
        self._next_id += 1
        self._allocations[alloc_id] = nbytes
        self._used += nbytes
        self.peak_bytes = max(self.peak_bytes, self._used)
        self.history.append((self._clock.now, nbytes))
        return alloc_id

    def record_oom(self):
        """Count one refused allocation."""
        self.oom_count += 1

    def note_spill(self, nbytes):
        """Count bytes that overflowed to local disk."""
        self.spilled_bytes += int(nbytes)

    def would_fit(self, nbytes):
        """Whether an allocation of ``nbytes`` would succeed."""
        return int(nbytes) <= self.available_bytes

    def free(self, alloc_id):
        """Release a previous allocation; idempotent frees are bugs.

        Allocations destroyed by a node crash (:meth:`wipe`) are the
        one exception: owners that outlive the crash (engine caches,
        resident pipelines) may still hold ids for wiped memory, and
        their late frees are silent no-ops rather than bookkeeping
        errors.
        """
        if alloc_id not in self._allocations:
            if alloc_id in self._wiped_ids:
                self._wiped_ids.discard(alloc_id)
                return
            raise KeyError(f"unknown or already-freed allocation {alloc_id}")
        nbytes = self._allocations.pop(alloc_id)
        self._used -= nbytes
        self.history.append((self._clock.now, -nbytes))

    def wipe(self):
        """Destroy all resident memory, as a node crash does.

        Outstanding allocation ids are remembered so that late
        :meth:`free` calls from surviving owners succeed silently.
        Returns the number of bytes lost.
        """
        lost = self._used
        self._wiped_ids.update(self._allocations)
        self._allocations.clear()
        self._used = 0
        if lost:
            self.history.append((self._clock.now, -lost))
        return lost

    def __repr__(self):
        return (
            f"MemoryTracker(node={self.node!r}, used={self.used_bytes},"
            f" capacity={self.capacity_bytes})"
        )
