"""S3-like object store.

All input data in the paper "was staged in Amazon S3" (Section 5.2.1),
once, ahead of every experiment.  The store holds real objects
(scaled-down arrays or encoded files) with nominal byte sizes; download
timings are charged by the network model of the cluster performing the
read.

An :class:`ObjectStore` is keyed per bucket, and each entry keeps its
full ``bucket/key`` name, built once when the object is put.  The store
indexes each bucket as it is first listed (a sorted key tuple and the
running byte totals along it), so ``list_keys`` and ``total_bytes`` do
not rescan the objects; a ``put`` drops that bucket's index.

:func:`staged` builds the store of one cohort in one bucket once per
process and freezes it: the harness hands that one store to the cluster
of every trial over the cohort, by reference, and a ``put`` into it
raises.  A store a cluster made for itself can :meth:`ObjectStore.mount`
a staged one, which copies its entries without building them again.

What belongs to one trial is not on the store but on the cluster's
:class:`S3Client`: the S3 fault plan and the retry counters, so a fault
plan installed on one cluster neither retries nor charges delay on
another that shares the store.
"""

from bisect import bisect_left
from itertools import accumulate

#: What no bucket lists: ``(sorted keys, running byte totals)``.
_EMPTY_INDEX = ((), (0,))


class ObjectStore:
    """A bucket/key object store with nominal size accounting."""

    def __init__(self):
        #: bucket -> {key: (value, nbytes, "bucket/key")}
        self._buckets = {}
        #: bucket -> (sorted keys, running byte totals from 0)
        self._index = {}
        self.frozen = False

    def _writable(self):
        if self.frozen:
            raise TypeError("a staged store is read-only")

    def put(self, bucket, key, value, nbytes):
        """Upload ``value`` (any object) as ``bucket/key`` of ``nbytes``."""
        self._writable()
        if not bucket or not key:
            raise ValueError("bucket and key must be non-empty")
        if "/" in bucket:
            raise ValueError(f"bucket name cannot contain '/': {bucket!r}")
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"object size cannot be negative: {nbytes}")
        self._buckets.setdefault(bucket, {})[key] = (
            value, nbytes, f"{bucket}/{key}"
        )
        self._index.pop(bucket, None)

    def freeze(self):
        """Index every bucket and refuse further puts; returns ``self``."""
        for bucket in self._buckets:
            self._indexed(bucket)
        self.frozen = True
        return self

    def mount(self, other):
        """Add every object of ``other`` (a staged store), one dict
        update per bucket: its entries were checked when it was built."""
        self._writable()
        for bucket, table in other._buckets.items():
            self._buckets.setdefault(bucket, {}).update(table)
            self._index.pop(bucket, None)

    def size_of(self, bucket, key):
        """Stored size in bytes of one entry."""
        return self._buckets[bucket][key][1]

    def _indexed(self, bucket):
        index = self._index.get(bucket)
        if index is None:
            table = self._buckets.get(bucket)
            if table is None:
                return _EMPTY_INDEX
            keys = tuple(sorted(table))
            totals = tuple(accumulate(
                (table[key][1] for key in keys), initial=0
            ))
            index = self._index[bucket] = (keys, totals)
        return index

    @staticmethod
    def _span(keys, prefix):
        """``[lo, hi)`` of the sorted ``keys`` that start with ``prefix``."""
        if not prefix:
            return 0, len(keys)
        lo = hi = bisect_left(keys, prefix)
        while hi < len(keys) and keys[hi].startswith(prefix):
            hi += 1
        return lo, hi

    def list_keys(self, bucket, prefix=""):
        """Sorted keys in ``bucket`` starting with ``prefix``."""
        keys, _totals = self._indexed(bucket)
        lo, hi = self._span(keys, prefix)
        return list(keys[lo:hi])

    def total_bytes(self, bucket, prefix=""):
        """Total stored bytes (optionally under a prefix)."""
        keys, totals = self._indexed(bucket)
        lo, hi = self._span(keys, prefix)
        return totals[hi] - totals[lo]

    def __len__(self):
        return sum(len(table) for table in self._buckets.values())


#: (bucket, entries, id of each cohort member) -> (cohort, frozen store).
#: The cohort is kept so that no member's id can be reused while its
#: entry lives.
_STAGED = {}


def staged(bucket, cohort, entries):
    """The frozen store of ``cohort`` in ``bucket``, built once per process.

    ``entries(member)`` yields each ``(key, value, nbytes)`` to put for
    one member of the cohort.  Members are matched by identity, which is
    what the memoized generators give every trial over one cohort.
    """
    cohort = tuple(cohort)
    token = (bucket, entries, *map(id, cohort))
    hit = _STAGED.get(token)
    if hit is None:
        store = ObjectStore()
        for member in cohort:
            for key, value, nbytes in entries(member):
                store.put(bucket, key, value, nbytes)
        hit = _STAGED[token] = (cohort, store.freeze())
    return hit[1]


class S3Client:
    """One cluster's reads of a store that other clusters may share.

    Holds what belongs to one trial: the S3 fault plan and the retry
    counters its reads accumulate.  Metadata reads carry no fault state
    and go straight to the store.
    """

    def __init__(self, store):
        self.store = store
        self._faults = None
        self.retry_count = 0
        self.total_retry_delay_s = 0.0
        self.size_of = store.size_of
        self.list_keys = store.list_keys
        self.total_bytes = store.total_bytes

    def install_faults(self, plan):
        """Attach a :class:`~repro.cluster.faults.FaultPlan` for reads.

        Reads consult ``plan.s3_attempt_retries``; transient failures
        are retried under the plan's retry policy, accumulating backoff
        into :attr:`total_retry_delay_s` so the executor can charge it
        to the reading task's duration.  Exceeding the retry cap raises
        :class:`~repro.cluster.errors.S3RetriesExhaustedError`.
        """
        self._faults = plan

    def get(self, bucket, key):
        """Return the stored object; raises ``KeyError`` when missing."""
        value, _nbytes, full = self.store._buckets[bucket][key]
        if self._faults is not None:
            retries = self._faults.s3_attempt_retries(full)
            if retries:
                policy = self._faults.retry_policy
                if retries >= policy.max_attempts:
                    from repro.cluster.errors import S3RetriesExhaustedError

                    raise S3RetriesExhaustedError(full, retries + 1)
                delay = policy.total_delay(retries)
                if (policy.timeout_s is not None
                        and delay > policy.timeout_s):
                    from repro.cluster.errors import S3RetriesExhaustedError

                    raise S3RetriesExhaustedError(full, retries + 1)
                self.retry_count += retries
                self.total_retry_delay_s += delay
        return value
