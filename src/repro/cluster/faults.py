"""Deterministic fault injection for the simulated cluster.

The paper's comparison is not only about speed: Section 2 contrasts how
the five systems behave under failure -- Spark recomputes lost
partitions from lineage, Dask reschedules lost futures, Myria restarts
the query, while SciDB and TensorFlow 0.x rerun from scratch.  A
:class:`FaultPlan` turns those qualitative claims into a measurable
experiment: it injects node crashes (at a virtual time or a progress
fraction), transient task failures, stragglers (per-node slowdown) and
degraded network links, all scheduled on the virtual clock and drawn
from a seeded hash so that the same seed reproduces the same run
bit-for-bit.

Nothing here consults wall-clock time or Python's salted ``hash()``;
every draw goes through :func:`_stable_fraction` (CRC32 of a
seed-qualified key) so fault schedules survive interpreter restarts.
"""

import zlib

#: Default cap on transient retries per task, mirroring Spark's
#: ``spark.task.maxFailures`` default of 4.
SPARK_MAX_TASK_FAILURES = 4


def _stable_fraction(seed, key):
    """Deterministic uniform draw in [0, 1) from ``seed`` and ``key``."""
    digest = zlib.crc32(f"{seed}:{key}".encode("utf-8")) & 0xFFFFFFFF
    return digest / 2 ** 32


class RetryPolicy:
    """Exponential backoff with a retry cap and an overall timeout.

    Shared by transient task failures and transient S3/object-store
    errors.  ``backoff(attempt)`` prices the wait before retry
    ``attempt`` (1-based: the delay after the first failure is
    ``backoff(1) == base_delay_s``).
    """

    def __init__(self, max_attempts=4, base_delay_s=1.0, multiplier=2.0,
                 max_delay_s=30.0, timeout_s=None):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if base_delay_s < 0 or max_delay_s < 0:
            raise ValueError("retry delays cannot be negative")
        self.max_attempts = int(max_attempts)
        self.base_delay_s = float(base_delay_s)
        self.multiplier = float(multiplier)
        self.max_delay_s = float(max_delay_s)
        self.timeout_s = timeout_s if timeout_s is None else float(timeout_s)

    def backoff(self, attempt):
        """Delay in simulated seconds before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be 1-based, got {attempt}")
        delay = self.base_delay_s * self.multiplier ** (attempt - 1)
        return min(delay, self.max_delay_s)

    def total_delay(self, retries):
        """Cumulative backoff across ``retries`` consecutive retries."""
        return sum(self.backoff(a) for a in range(1, retries + 1))


class RecoveryPolicy:
    """How a :class:`~repro.cluster.cluster.SimulatedCluster` reacts to faults.

    ``mode`` is either ``"abort"`` (raise ``NodeCrashedError`` out of
    ``run()`` so the engine can restart at its own granularity -- Myria
    restarts the query, SciDB reruns from the last ingested array, TF
    reruns the job) or ``"recompute"`` (the executor reschedules killed
    and lost tasks onto surviving nodes, recomputing wiped dependencies
    from lineage -- Spark and Dask).

    ``max_task_failures`` bounds per-task attempts (crash kills and
    transient failures both count); ``blacklist`` excludes a crashed
    node from placement until it restarts (a rebooted node rejoins as
    a fresh executor);
    ``recompute_category`` re-tags recomputed tasks so the critical-path
    blame walk can attribute recovery work (``spark-recompute``,
    ``dask-recompute``); the executor stamps the same records
    ``@recovery``.
    """

    ABORT = "abort"
    RECOMPUTE = "recompute"

    def __init__(self, mode=ABORT, max_task_failures=1, blacklist=False,
                 recompute_category=None, label=None):
        if mode not in (self.ABORT, self.RECOMPUTE):
            raise ValueError(f"unknown recovery mode {mode!r}")
        if max_task_failures < 1:
            raise ValueError("max_task_failures must be at least 1")
        self.mode = mode
        self.max_task_failures = int(max_task_failures)
        self.blacklist = bool(blacklist)
        self.recompute_category = recompute_category
        self.label = label or mode

    def __repr__(self):
        return (
            f"RecoveryPolicy(mode={self.mode!r},"
            f" max_task_failures={self.max_task_failures},"
            f" blacklist={self.blacklist})"
        )


def spark_recovery():
    """Lineage recompute with bounded retries and node blacklisting."""
    return RecoveryPolicy(
        mode=RecoveryPolicy.RECOMPUTE,
        max_task_failures=SPARK_MAX_TASK_FAILURES,
        blacklist=True,
        recompute_category="spark-recompute",
        label="spark-lineage",
    )


def dask_recovery():
    """Reschedule lost futures onto survivors; recompute from S3."""
    return RecoveryPolicy(
        mode=RecoveryPolicy.RECOMPUTE,
        max_task_failures=3,
        blacklist=False,
        recompute_category="dask-recompute",
        label="dask-reschedule",
    )


def abort_recovery(label):
    """Whole-query / whole-job restart is the engine's responsibility."""
    return RecoveryPolicy(mode=RecoveryPolicy.ABORT, label=label)


class NodeCrash:
    """One scheduled node crash (and optional restart)."""

    __slots__ = ("node", "at_time", "at_progress", "restart_after",
                 "lose_disk", "fired")

    def __init__(self, node, at_time=None, at_progress=None,
                 restart_after=None, lose_disk=False):
        if (at_time is None) == (at_progress is None):
            raise ValueError("specify exactly one of at_time / at_progress")
        if at_progress is not None and not 0.0 < at_progress < 1.0:
            raise ValueError("at_progress must be in (0, 1)")
        self.node = node
        self.at_time = at_time if at_time is None else float(at_time)
        self.at_progress = at_progress
        self.restart_after = (
            restart_after if restart_after is None else float(restart_after)
        )
        self.lose_disk = bool(lose_disk)
        self.fired = False


class _TransientFaults:
    """Seeded transient-failure schedule for matching tasks."""

    __slots__ = ("rate", "match", "detect_delay_s", "max_failures_per_task")

    def __init__(self, rate, match=None, detect_delay_s=0.5,
                 max_failures_per_task=None):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"failure rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self.match = match
        self.detect_delay_s = float(detect_delay_s)
        self.max_failures_per_task = max_failures_per_task


class _S3Faults:
    """Seeded transient object-store failure schedule."""

    __slots__ = ("rate", "max_failures_per_key")

    def __init__(self, rate, max_failures_per_key=2):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"failure rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self.max_failures_per_key = int(max_failures_per_key)


class FaultPlan:
    """A seeded, single-use schedule of faults for one cluster.

    Build a plan with the fluent methods, then hand it to
    :meth:`SimulatedCluster.install_faults`.  All randomness derives
    from ``seed`` via CRC32, so identical seeds give bit-identical
    fault schedules (and therefore bit-identical ledger snapshots).
    """

    def __init__(self, seed=0, retry_policy=None):
        self.seed = int(seed)
        self.retry_policy = retry_policy or RetryPolicy()
        self.crashes = []
        self.transient = []
        self.slowdowns = {}
        self.link_factors = {}
        self.s3_faults = None

    # -- builders ------------------------------------------------------

    def crash_node(self, node, at_time=None, at_progress=None,
                   restart_after=None, lose_disk=False):
        """Kill ``node`` at a virtual time or DAG-progress fraction.

        The crash wipes the node's memory (and, with ``lose_disk``, its
        local disk); ``restart_after`` seconds later the node rejoins
        with empty state, modeling an instance reboot.
        """
        self.crashes.append(
            NodeCrash(node, at_time=at_time, at_progress=at_progress,
                      restart_after=restart_after, lose_disk=lose_disk)
        )
        return self

    def fail_tasks(self, rate, match=None, detect_delay_s=0.5,
                   max_failures_per_task=None):
        """Fail a seeded ``rate`` fraction of task attempts transiently.

        ``match`` optionally restricts the fault to tasks whose name
        contains the substring.  A failing attempt occupies its slot
        for ``detect_delay_s`` (the failure-detection latency) without
        running the task body, then releases it.
        ``max_failures_per_task`` caps how many attempts of one task
        can fail so bounded-retry policies always converge.
        """
        self.transient.append(
            _TransientFaults(rate, match=match, detect_delay_s=detect_delay_s,
                             max_failures_per_task=max_failures_per_task)
        )
        return self

    def slow_node(self, node, factor):
        """Stretch compute durations on ``node`` by ``factor`` (>= 1)."""
        if factor < 1.0:
            raise ValueError(f"straggler factor must be >= 1, got {factor}")
        self.slowdowns[node] = float(factor)
        return self

    def degrade_link(self, src, dst, factor):
        """Stretch transfer times on the ``src``->``dst`` link."""
        if factor < 1.0:
            raise ValueError(f"link factor must be >= 1, got {factor}")
        self.link_factors[(src, dst)] = float(factor)
        return self

    def fail_s3(self, rate, max_failures_per_key=2):
        """Make a seeded fraction of object-store reads fail transiently.

        Failed reads are retried under the plan's :class:`RetryPolicy`;
        the accumulated backoff is charged to the reading task's
        duration.
        """
        self.s3_faults = _S3Faults(rate, max_failures_per_key)
        return self

    # -- queries (consulted by the executor) ---------------------------

    def task_should_fail(self, task, attempt):
        """Whether this attempt of ``task`` fails; returns detect delay.

        Returns ``None`` for a healthy attempt, else the detection
        delay in simulated seconds.
        """
        for spec in self.transient:
            if spec.match is not None and spec.match not in task.name:
                continue
            cap = spec.max_failures_per_task
            if cap is not None and attempt > cap:
                continue
            draw = _stable_fraction(
                self.seed, f"task:{task.name}:{attempt}"
            )
            if draw < spec.rate:
                return spec.detect_delay_s
        return None

    def slowdown(self, node_name):
        """Compute-duration multiplier for ``node_name`` (1.0 = healthy)."""
        return self.slowdowns.get(node_name, 1.0)

    def s3_attempt_retries(self, full_key):
        """Number of transient failures a read of ``full_key`` hits."""
        spec = self.s3_faults
        if spec is None or spec.rate <= 0.0:
            return 0
        retries = 0
        while retries < spec.max_failures_per_key:
            draw = _stable_fraction(self.seed, f"s3:{full_key}:{retries}")
            if draw >= spec.rate:
                break
            retries += 1
        return retries
