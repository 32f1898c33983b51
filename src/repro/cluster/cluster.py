"""The simulated cluster: nodes, slots, and what outlives a run.

``SimulatedCluster.run()`` executes a DAG of :class:`~repro.cluster.task.Task`
objects.  Each node offers ``spec.slots_per_node`` parallel slots; tasks
occupy one slot for their modeled duration.  Input transfers between
nodes, memory admission (with fail/wait/spill policies) and the virtual
clock are handled by the executor (:class:`~repro.cluster.run.Run`, one
per call), so that engines only need to express the *structure* of
their execution.
"""

from math import inf

from repro.cluster.clock import VirtualClock
from repro.cluster.costs import DEFAULT_COST_MODEL
from repro.cluster.disk import LocalDisk
from repro.cluster.errors import PlacementError
from repro.cluster.faults import RecoveryPolicy
from repro.cluster.memory import MemoryTracker
from repro.cluster.network import NetworkModel
from repro.cluster.objectstore import ObjectStore, S3Client
from repro.cluster.run import Run
from repro.cluster.spec import ClusterSpec
from repro.cluster.task import Task
from repro.obs.spans import Observability, check_op


class Node:
    """Runtime state of one simulated machine."""

    def __init__(self, name, spec, slots, obs):
        self.name = name
        self.spec = spec
        self.slots = slots
        self.busy_slots = 0
        self.memory = MemoryTracker(name, spec.memory_bytes, clock=obs.clock)
        self.disk = LocalDisk(name, spec.disk_bytes)
        self.busy_seconds = 0.0
        self.alive = True
        #: Times this node has crashed; consumers (e.g. Dask's client)
        #: use it as a liveness epoch for results placed here.
        self.crash_count = 0
        self.failed_tasks = 0
        self.retried_tasks = 0

    def __repr__(self):
        return f"Node({self.name!r}, slots={self.slots}, busy={self.busy_slots})"


class SimulatedCluster:
    """A deterministic, discrete-event cluster of identical nodes."""

    def __init__(self, spec, cost_model=DEFAULT_COST_MODEL, object_store=None):
        if not isinstance(spec, ClusterSpec):
            raise TypeError(f"spec must be a ClusterSpec, got {type(spec)!r}")
        self.spec = spec
        self.cost_model = cost_model
        self.clock = VirtualClock()
        self.obs = Observability(self.clock)
        self.network = NetworkModel(cost_model)
        #: This cluster's reads of the store, with its own S3 faults and
        #: retry counters; the store itself may be shared (see
        #: :func:`repro.cluster.objectstore.staged`).
        self.s3 = S3Client(
            object_store if object_store is not None else ObjectStore()
        )
        self.nodes = {
            name: Node(name, spec.node, spec.slots_per_node, self.obs)
            for name in spec.node_names()
        }
        self.node_order = spec.node_names()
        #: task_id -> the filed record of each finished task, its result.
        self.completed = {}
        #: task_id -> the open :class:`~repro.obs.spans.TaskRecord` of a
        #: task admitted but not finished; completion files it with
        #: ``obs``.  A task an aborted run left behind keeps its record.
        self._records = {}
        # -- fault injection and recovery state ------------------------
        self._faults = None
        self.recovery_policy = RecoveryPolicy()
        self._blacklisted = set()
        #: task_id -> failed attempts so far (crash kills + transients).
        self._attempts = {}
        #: Completed task ids whose results died with a crashed node.
        self._lost_results = set()
        #: Task ids being re-run after a failure (sets the ``retried``
        #: flag and recompute category on their next record).
        self._resurrected = set()
        #: node name -> virtual time its post-crash restart completes.
        self._pending_recover = {}
        #: task_id -> ``(task, node, alloc_id, end)`` per running
        #: attempt, also the payload of its event.
        self._inflight = {}
        #: Monotonic per-push sequence: the third heap field, so equal
        #: (time, tiebreak) events resolve by push order instead of
        #: comparing payloads.
        self._event_seq = 0

    # ------------------------------------------------------------------
    # Fault injection and recovery configuration
    # ------------------------------------------------------------------

    def install_faults(self, plan):
        """Attach a :class:`~repro.cluster.faults.FaultPlan` to this run.

        Link degradations apply to the network model immediately;
        crashes and transient failures are scheduled by :meth:`run` on
        the virtual clock.  Plans are single-use: share one across
        clusters only if you want the identical schedule replayed.
        """
        self._faults = plan
        for (src, dst), factor in sorted(plan.link_factors.items()):
            self.network.set_link_factor(src, dst, factor)
        if plan.s3_faults is not None:
            self.s3.install_faults(plan)
        return plan

    def install_recovery(self, policy):
        """Set the engine's :class:`~repro.cluster.faults.RecoveryPolicy`."""
        self.recovery_policy = policy
        return policy

    def _revive(self, name):
        """A crashed node rejoins the cluster (with empty state).

        Rejoining also clears any blacklist entry: the rebooted node
        registers as a fresh executor, like a replacement Spark
        executor after ``spark.blacklist.timeout``.
        """
        node = self.nodes[name]
        self._pending_recover.pop(name, None)
        self._blacklisted.discard(name)
        node.alive = True

    def _drain_inflight(self):
        """Release slots/memory of running attempts when a run aborts.

        Without this, any exception out of :meth:`run` (task failure,
        OOM, node crash under the abort policy) would leak the busy
        slots and allocations of every other in-flight task, because
        their completion events die with the run's event heap.
        """
        for _tid, (task, node, alloc_id, end) in sorted(
            self._inflight.items()
        ):
            if node.alive:
                node.busy_slots = max(0, node.busy_slots - 1)
                node.busy_seconds -= max(0.0, end - self.now)
            if alloc_id is not None:
                try:
                    node.memory.free(alloc_id)
                except KeyError:
                    pass
        self._inflight.clear()

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def now(self):
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def object_store(self):
        """The store this cluster's :attr:`s3` reads."""
        return self.s3.store

    @property
    def master(self):
        """The coordinator node (drivers, masters, query coordinators)."""
        return self.node_order[0]

    def node(self, name):
        """Look up a node by name; raises on unknown names."""
        try:
            return self.nodes[name]
        except KeyError:
            raise PlacementError(f"unknown node {name!r}") from None

    def charge_master(self, seconds, label="coordinator work", category=None,
                      *, op):
        """Advance the clock for serial coordinator-side work.

        ``op`` (required) is the provenance id or pseudo-op the charge
        is attributed to; ``seconds`` must be finite and >= 0.
        """
        check_op(op, label)
        if not 0 <= seconds < inf:
            raise ValueError(
                f"charge {label!r} ({category}) must be finite, >= 0,"
                f" got {seconds}"
            )
        self.clock.advance_by(seconds)
        self.obs.record_task(label, self.master, self.now - seconds, self.now,
                             category=category, op=op)

    # ------------------------------------------------------------------
    # The executor
    # ------------------------------------------------------------------

    def run(self, tasks):
        """Execute a DAG of tasks; returns ``{task_id: filed TaskRecord}``.

        The clock starts at its current value (runs are cumulative,
        modeling consecutive pipeline stages) and finishes at the
        makespan of the DAG.  Tasks that were already completed in a
        previous run are treated as satisfied dependencies.
        """
        pending = self._collect(tasks)
        if not pending:
            return {}
        try:
            return Run(self, pending).run()
        except BaseException:
            # Whatever aborted the run, in-flight attempts must not
            # leak their slots or memory reservations.
            self._drain_inflight()
            raise

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _collect(self, tasks):
        """Transitively gather the task set, keyed by id.

        A task that completed earlier but whose result died with a
        crashed node is collected again: resubmitting it (or anything
        depending on it) recomputes it from lineage.

        An upstream tuple that several tasks share (an ``Upstream``) is
        pushed once.  When a second holder is popped, every task the
        first push put on the stack has been taken off it, since the
        holder cannot depend on them (a task's dependencies exist before
        it, so the graph has no cycle): a second push would only find
        them collected or skipped.
        """
        pending = {}
        pushed = set()
        stack = list(tasks)
        while stack:
            task = stack.pop()
            if not isinstance(task, Task):
                raise TypeError(f"expected Task, got {type(task)!r}")
            if task.task_id in pending:
                continue
            if task.task_id in self.completed:
                if task.task_id not in self._lost_results:
                    continue
                self._resurrect(task)
            pending[task.task_id] = task
            upstream = task.dependencies()
            if id(upstream) not in pushed:
                pushed.add(id(upstream))
                stack.extend(upstream)
        return pending

    def _resurrect(self, task):
        """``task`` finished, its result died with a node: it runs again,
        wherever there is room if its own node is not usable."""
        del self.completed[task.task_id]
        self._lost_results.discard(task.task_id)
        self._resurrected.add(task.task_id)
        if task.node is not None and task.node not in self._usable_nodes():
            task.node = None

    def _usable_nodes(self):
        """``{name: node}`` of the nodes that may take work (alive and
        not blacklisted), in ``node_order``."""
        blacklisted = self._blacklisted
        return {
            name: node for name, node in self.nodes.items()
            if node.alive and name not in blacklisted
        }

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def utilization(self):
        """Fraction of slot-seconds spent busy since time zero."""
        if self.now == 0:
            return 0.0
        total_capacity = self.spec.total_slots * self.now
        busy = sum(n.busy_seconds for n in self.nodes.values())
        return busy / total_capacity

    def node_summaries(self):
        """Per-node resource summary rows, master first.

        Each row reports ``busy_seconds``, the memory high-water mark
        (``peak_memory_bytes``), OOM and spill totals, and disk
        traffic -- the per-node view behind Figure 15's memory
        analysis and the ``trace`` CLI breakdown.
        """
        rows = []
        for name in self.node_order:
            node = self.nodes[name]
            rows.append(
                {
                    "node": name,
                    "busy_seconds": node.busy_seconds,
                    "peak_memory_bytes": node.memory.peak_bytes,
                    "used_memory_bytes": node.memory.used_bytes,
                    "oom_count": node.memory.oom_count,
                    "spilled_bytes": node.memory.spilled_bytes,
                    "disk_bytes_written": node.disk.bytes_written,
                    "disk_bytes_read": node.disk.bytes_read,
                    "failed_tasks": node.failed_tasks,
                    "retried_tasks": node.retried_tasks,
                    "crash_count": node.crash_count,
                }
            )
        return rows

