"""S3-like object store.

All input data in the paper "was staged in Amazon S3" (Section 5.2.1).
The store holds real objects (scaled-down arrays or encoded files) with
nominal byte sizes; download timings are charged by the network model of
the cluster performing the read.
"""


class ObjectStore:
    """A flat bucket/key object store with nominal size accounting."""

    def __init__(self):
        self._objects = {}
        self._faults = None
        self.retry_count = 0
        self.total_retry_delay_s = 0.0

    def install_faults(self, plan):
        """Attach a :class:`~repro.cluster.faults.FaultPlan` for reads.

        Reads consult ``plan.s3_attempt_retries``; transient failures
        are retried under the plan's retry policy, accumulating backoff
        into :attr:`total_retry_delay_s` so the executor can charge it
        to the reading task's duration.  Exceeding the retry cap raises
        :class:`~repro.cluster.errors.S3RetriesExhaustedError`.
        """
        self._faults = plan

    @staticmethod
    def _key(bucket, key):
        if not bucket or not key:
            raise ValueError("bucket and key must be non-empty")
        return f"{bucket}/{key}"

    def put(self, bucket, key, value, nbytes):
        """Upload ``value`` (any object) as ``bucket/key`` of ``nbytes``."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError(f"object size cannot be negative: {nbytes}")
        self._objects[self._key(bucket, key)] = (value, nbytes)

    def get(self, bucket, key):
        """Return the stored object; raises ``KeyError`` when missing."""
        full = self._key(bucket, key)
        value, nbytes = self._objects[full]
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

    def size_of(self, bucket, key):
        """Stored size in bytes of one entry."""
        return self._objects[self._key(bucket, key)][1]

    def exists(self, bucket, key):
        """Whether the entry is present."""
        return self._key(bucket, key) in self._objects

    def delete(self, bucket, key):
        """Remove one entry; raises ``KeyError`` when absent."""
        del self._objects[self._key(bucket, key)]

    def list_keys(self, bucket, prefix=""):
        """Sorted keys in ``bucket`` starting with ``prefix``."""
        marker = f"{bucket}/"
        keys = [
            full[len(marker):]
            for full in self._objects
            if full.startswith(marker)
        ]
        return sorted(k for k in keys if k.startswith(prefix))

    def total_bytes(self, bucket, prefix=""):
        """Total stored bytes (optionally under a prefix)."""
        return sum(
            self.size_of(bucket, key) for key in self.list_keys(bucket, prefix)
        )

    def __len__(self):
        return len(self._objects)
