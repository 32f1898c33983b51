"""The driver-side entry point: ``SparkContext``.

Mirrors the PySpark API surface the paper's implementation uses
(Section 4.2): ``parallelize``, reading staged objects from S3,
``broadcast``, and the RDD transformation/action methods.
"""

import itertools

from repro.cluster.faults import spark_recovery
from repro.engines.base import Engine
from repro.engines.spark.broadcast import Broadcast
from repro.engines.spark.rdd import RDD
from repro.engines.spark.stage import SparkScheduler

#: Bytes per input split when the user does not specify partitioning.
#: Calibrated to the paper's observation that "for the neuroscience use
#: case with a single subject, Spark creates only 4 partitions"
#: (Section 5.3.1) for a ~4.2 GB subject.
DEFAULT_SPLIT_BYTES = 1_050_000_000


class SparkContext(Engine):
    """miniSpark driver."""

    name = "Spark"

    def __init__(self, cluster):
        super().__init__(cluster)
        #: Numbers this context's RDDs (cache-store keys, memory labels).
        self.rdd_ids = itertools.count()
        self.scheduler = SparkScheduler(self)
        # Lineage recompute with spark.task.maxFailures-style retry
        # bounds and node blacklisting (Section 2).
        cluster.install_recovery(spark_recovery())

    def startup_cost(self):
        """One-time engine startup in simulated seconds."""
        return self.cost_model.spark_job_startup

    # ------------------------------------------------------------------
    # RDD factories
    # ------------------------------------------------------------------

    def parallelize(self, data, numSlices=None):  # noqa: N803
        """Distribute a driver-side collection as an RDD."""
        data = list(data)
        if numSlices is None:
            numSlices = min(
                max(1, len(data)), self.cluster.spec.total_slots
            )
        if numSlices <= 0:
            raise ValueError(f"numSlices must be positive, got {numSlices}")
        return RDD(
            self,
            "parallelize",
            num_partitions=int(numSlices),
            params={"data": data},
        )

    def s3_objects(self, bucket, prefix="", loader=None, numPartitions=None):  # noqa: N803
        """RDD over staged S3 objects (the paper's ingest pattern).

        ``loader`` converts a stored object into a record; default is
        identity.  When ``numPartitions`` is unspecified, one partition
        is created per :data:`DEFAULT_SPLIT_BYTES` of input -- the
        HDFS-block-like behavior that under-utilizes the cluster in
        Figure 14 unless tuned.
        """
        store = self.cluster.s3
        keys = store.list_keys(bucket, prefix)
        if not keys:
            raise ValueError(f"no objects under s3://{bucket}/{prefix}")
        if numPartitions is None:
            total = store.total_bytes(bucket, prefix)
            numPartitions = max(1, total // DEFAULT_SPLIT_BYTES)
        numPartitions = int(min(numPartitions, len(keys)))
        if loader is None:
            loader = _identity
        return RDD(
            self,
            "s3_objects",
            num_partitions=numPartitions,
            params={"bucket": bucket, "keys": keys, "loader": loader},
        )

    # ------------------------------------------------------------------
    # Shared variables
    # ------------------------------------------------------------------

    def broadcast(self, value, nominal_bytes=None):
        """Broadcast."""
        self.ensure_started()
        return Broadcast(self, value, nominal_bytes=nominal_bytes)


def _identity(value):
    return value
