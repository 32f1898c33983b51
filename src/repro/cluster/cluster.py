"""The simulated cluster: nodes, slots, and the event-driven executor.

``SimulatedCluster.run()`` executes a DAG of :class:`~repro.cluster.task.Task`
objects.  Each node offers ``spec.slots_per_node`` parallel slots; tasks
occupy one slot for their modeled duration.  Input transfers between
nodes, memory admission (with fail/wait/spill policies) and the virtual
clock are all handled here, so that engines only need to express the
*structure* of their execution.
"""

import heapq

from repro.cluster.clock import VirtualClock
from repro.cluster.costs import DEFAULT_COST_MODEL
from repro.cluster.disk import LocalDisk
from repro.cluster.errors import (
    NodeCrashedError,
    OutOfMemoryError,
    PlacementError,
    TaskFailedError,
)
from repro.cluster.faults import RecoveryPolicy
from repro.cluster.memory import MemoryTracker
from repro.cluster.network import NetworkModel
from repro.cluster.objectstore import ObjectStore
from repro.cluster.ready import ReadySet
from repro.cluster.spec import ClusterSpec
from repro.cluster.task import Task, TaskResult
from repro.obs.spans import PSEUDO_RECOVERY, Observability
from repro.obs.events import (
    NodeCrashed,
    NodeRecovered,
    TaskFailed,
    TaskFinished,
    TaskPlaced,
    TaskQueued,
    TaskRetried,
    TaskStarted,
)


def _deadlock(blocked):
    """The error for a run that cannot go on, blamed on ``blocked``."""
    return TaskFailedError(
        blocked.name,
        RuntimeError("deadlock: task cannot start (insufficient memory or slots)"),
        category=blocked.category,
    )


class Node:
    """Runtime state of one simulated machine."""

    def __init__(self, name, spec, slots, cost_model, obs=None):
        self.name = name
        self.spec = spec
        self.slots = slots
        self.busy_slots = 0
        self.memory = MemoryTracker(
            name,
            spec.memory_bytes,
            events=obs.events if obs is not None else None,
            clock=obs.clock if obs is not None else None,
        )
        self.disk = LocalDisk(name, spec.disk_bytes)
        self.cost_model = cost_model
        self.busy_seconds = 0.0
        self.alive = True
        #: Times this node has crashed; consumers (e.g. Dask's client)
        #: use it as a liveness epoch for results placed here.
        self.crash_count = 0
        self.failed_tasks = 0
        self.retried_tasks = 0

    @property
    def free_slots(self):
        """Execution slots currently idle on this node."""
        return self.slots - self.busy_slots

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
        self.network = NetworkModel(
            cost_model, events=self.obs.events, clock=self.clock
        )
        self.object_store = object_store if object_store is not None else ObjectStore()
        self.object_store.bind(self.obs.events, self.clock)
        self.nodes = {
            name: Node(name, spec.node, spec.slots_per_node, cost_model,
                       obs=self.obs)
            for name in spec.node_names()
        }
        self.node_order = spec.node_names()
        self.completed = {}
        self.task_trace = []
        self._start_times = {}
        #: task_id -> scheduling bookkeeping (queued/ready times, memory
        #: deferrals, transfer/compute/spill split) feeding the task
        #: records that critical-path analysis consumes.
        self._sched_info = {}
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
        #: task_id -> (task, node, alloc_id, end, attempt) per running
        #: attempt.
        self._inflight = {}
        self._fault_seq = 10 ** 9
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
            self.object_store.install_faults(plan)
        return plan

    def install_recovery(self, policy):
        """Set the engine's :class:`~repro.cluster.faults.RecoveryPolicy`."""
        self.recovery_policy = policy
        return policy

    def _next_fault_tiebreak(self):
        """Heap tiebreaks for fault events: after task events, unique."""
        self._fault_seq += 1
        return self._fault_seq

    def _push_event(self, events, time, tiebreak, kind, payload):
        """Heap entries are ``(time, tiebreak, seq, kind, payload)``."""
        self._event_seq += 1
        heapq.heappush(events, (time, tiebreak, self._event_seq, kind, payload))

    def _revive(self, name):
        """A crashed node rejoins the cluster (with empty state).

        Rejoining also clears any blacklist entry: the rebooted node
        registers as a fresh executor, like a replacement Spark
        executor after ``spark.blacklist.timeout``.
        """
        node = self.nodes[name]
        self._pending_recover.pop(name, None)
        self._blacklisted.discard(name)
        if node.alive:
            return
        node.alive = True
        if self.obs.events:
            self.obs.events.emit(NodeRecovered(self.now, name))

    def _drain_inflight(self):
        """Release slots/memory of running attempts when a run aborts.

        Without this, any exception out of :meth:`run` (task failure,
        OOM, node crash under the abort policy) would leak the busy
        slots and allocations of every other in-flight task, because
        their completion events die with the local event heap.
        """
        for _tid, (task, node, alloc_id, end, _attempt) in sorted(
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
    def master(self):
        """The coordinator node (drivers, masters, query coordinators)."""
        return self.node_order[0]

    def node(self, name):
        """Look up a node by name; raises on unknown names."""
        try:
            return self.nodes[name]
        except KeyError:
            raise PlacementError(f"unknown node {name!r}") from None

    def result_of(self, task):
        """Value produced by ``task`` in a previous :meth:`run` call."""
        return self.completed[task.task_id].value

    def charge_master(self, seconds, label="coordinator work", category=None,
                      op=None):
        """Advance the clock for serial coordinator-side work."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self.clock.advance_by(seconds)
        start = self.now - seconds
        self.task_trace.append((label, self.master, start, self.now))
        self.obs.record_task(label, self.master, start, self.now,
                             category=category, op=op)

    # ------------------------------------------------------------------
    # The executor
    # ------------------------------------------------------------------

    def run(self, tasks):
        """Execute a DAG of tasks; returns ``{task_id: TaskResult}``.

        The clock starts at its current value (runs are cumulative,
        modeling consecutive pipeline stages) and finishes at the
        makespan of the DAG.  Tasks that were already completed in a
        previous run are treated as satisfied dependencies.
        """
        pending = self._collect(tasks)
        if not pending:
            return {}

        policy = self.recovery_policy
        bus = self.obs.events
        if bus:
            for task in sorted(pending.values(), key=lambda t: t.task_id):
                bus.emit(TaskQueued(self.now, task.name, task.task_id))

        waiting_deps = {}
        dependents = {}
        ready = ReadySet()
        events = []  # heap of (time, tiebreak, seq, kind, payload)
        run_results = {}
        oom_waiting = []
        timers_set = set()
        cancelled = set()
        initial_total = len(pending)
        completions = 0
        #: Count of "crash"/"recover" entries currently in the heap, so
        #: the only-fault-events-left check is O(1) per event instead
        #: of a scan of the whole heap.
        heap_faults = [0]

        def admit(tasks):
            """``tasks`` join the ready set, in id order.

            One that sleeps behind its ``not_before`` floor gets a
            single timer event to wake the loop at that time, however
            often a crash rebuilds the set around it.
            """
            now = self.now
            for task in sorted(tasks, key=lambda t: t.task_id):
                if ready.add(task, now) and task.task_id not in timers_set:
                    timers_set.add(task.task_id)
                    self._push_event(
                        events, task.not_before, task.task_id, "timer", None
                    )

        def rebuild_schedule(time):
            """(Re)derive readiness state from ``pending``.

            Called once at run start and again after every crash, when
            requeued and resurrected tasks invalidate the incremental
            waiting-dependency counts.
            """
            waiting_deps.clear()
            dependents.clear()
            ready.clear()
            oom_waiting.clear()
            runnable = []
            for task in pending.values():
                if (task.task_id in self.completed
                        or task.task_id in self._inflight):
                    continue
                open_deps = [
                    d for d in task.dependencies()
                    if d.task_id not in self.completed
                ]
                for dep in open_deps:
                    if dep.task_id not in pending:
                        raise TaskFailedError(
                            task.name,
                            RuntimeError(
                                f"dependency {dep.name!r} neither scheduled"
                                " nor completed"
                            ),
                            category=task.category,
                        )
                    dependents.setdefault(dep.task_id, []).append(task)
                waiting_deps[task.task_id] = len(open_deps)
                info = self._sched_info.get(task.task_id)
                if task.task_id in self._resurrected:
                    self._resurrected.discard(task.task_id)
                    info = {
                        "queued": time,
                        "ready": time if not open_deps else None,
                        "mem_deferred": False,
                        "retried": True,
                    }
                    if policy.recompute_category:
                        # A lineage recompute is recovery work, whatever
                        # op the lost result first implemented.
                        info["category"] = policy.recompute_category
                        info["op"] = PSEUDO_RECOVERY
                    self._sched_info[task.task_id] = info
                elif info is None:
                    self._sched_info[task.task_id] = {
                        "queued": time,
                        "ready": time if not open_deps else None,
                        "mem_deferred": False,
                    }
                elif open_deps:
                    info["ready"] = None
                elif info.get("ready") is None:
                    info["ready"] = time
                if not open_deps:
                    runnable.append(task)
            admit(runnable)

        def fire_crash(crash, time):
            """Kill a node: wipe its state, then recover per policy."""
            crash.fired = True
            node = self.nodes.get(crash.node)
            if node is None:
                raise PlacementError(
                    f"fault plan crashes unknown node {crash.node!r}"
                )
            if not node.alive:
                return
            node.alive = False
            node.crash_count += 1
            killed = []
            for tid in sorted(self._inflight):
                task, on_node, _alloc, end, attempt = self._inflight[tid]
                if on_node is not node:
                    continue
                del self._inflight[tid]
                cancelled.add((tid, attempt))
                node.failed_tasks += 1
                node.busy_seconds -= max(0.0, end - time)
                start = self._start_times.get(tid, time)
                # Record the lost partial extent so node-busy tiling
                # (and blame, if it lands on the path) stays exact.
                self.obs.record_task(task.name, node.name, start, time,
                                     category=task.category, op=task.op)
                if bus:
                    bus.emit(TaskFailed(time, task.name, tid, node.name,
                                        f"node {node.name} crashed"))
                killed.append(task)
            node.busy_slots = 0
            node.memory.wipe()
            if crash.lose_disk:
                node.disk.wipe()
            for tid, res in self.completed.items():
                if res.node == node.name:
                    self._lost_results.add(tid)
            recover_at = None
            if crash.restart_after is not None:
                recover_at = time + crash.restart_after
                self._pending_recover[node.name] = recover_at
                heap_faults[0] += 1
                self._push_event(
                    events, recover_at, self._next_fault_tiebreak(),
                    "recover", node.name,
                )
            if bus:
                bus.emit(NodeCrashed(time, node.name,
                                     tuple(t.name for t in killed)))
            if policy.mode == RecoveryPolicy.ABORT:
                raise NodeCrashedError(
                    node.name, time, recover_at=recover_at,
                    killed_tasks=tuple(t.name for t in killed),
                )
            if policy.blacklist:
                self._blacklisted.add(node.name)
            # Requeue killed attempts, bounded by the recovery policy.
            for task in killed:
                attempts = self._attempts.get(task.task_id, 0) + 1
                self._attempts[task.task_id] = attempts
                if attempts >= policy.max_task_failures:
                    raise TaskFailedError(
                        task.name,
                        NodeCrashedError(node.name, time,
                                         recover_at=recover_at),
                        node=node.name,
                        category=task.category,
                    )
                node.retried_tasks += 1
                self._resurrected.add(task.task_id)
                if bus:
                    bus.emit(TaskRetried(time, task.name, task.task_id,
                                         node.name, attempts + 1))
            # Unpin not-yet-finished tasks stranded on the dead node.
            for task in pending.values():
                if task.task_id in self.completed:
                    continue
                if task.node == node.name:
                    task.node = None
            # Resurrect lost dependencies transitively: every result
            # that lived on the crashed node and is still needed must
            # be recomputed from lineage on the survivors.
            stack = [
                t for t in list(pending.values())
                if t.task_id not in self.completed
            ]
            seen = set()
            while stack:
                t = stack.pop()
                if t.task_id in seen:
                    continue
                seen.add(t.task_id)
                for dep in t.dependencies():
                    if (dep.task_id in self._lost_results
                            and dep.task_id in self.completed):
                        del self.completed[dep.task_id]
                        self._lost_results.discard(dep.task_id)
                        self._resurrected.add(dep.task_id)
                        pending[dep.task_id] = dep
                        if dep.node is not None:
                            owner = self.nodes.get(dep.node)
                            if (owner is None or not owner.alive
                                    or dep.node in self._blacklisted):
                                dep.node = None
                        if bus:
                            bus.emit(TaskRetried(
                                time, dep.name, dep.task_id, node.name,
                                self._attempts.get(dep.task_id, 0) + 1,
                            ))
                    if dep.task_id not in self.completed:
                        stack.append(dep)
            rebuild_schedule(time)

        def start_candidates():
            if not ready:
                return
            nodes = self.nodes
            blacklisted = self._blacklisted
            # Free slots across usable nodes: once this hits zero only
            # stale pins are still looked at.
            free = 0
            for node in nodes.values():
                if node.alive and node.name not in blacklisted:
                    free += node.slots - node.busy_slots

            def can_act(pin):
                if pin is None:
                    return free > 0
                node = nodes.get(pin)
                if node is None or not node.alive or pin in blacklisted:
                    # A stale pin is shed (or surfaced) when its turn
                    # comes, whether or not a slot is free.
                    return True
                return node.slots > node.busy_slots

            now = self.now
            for task in ready.due(now, can_act):
                node = None
                if task.node is not None:
                    node = self._pinned_node(task)
                if node is None:
                    if free <= 0:
                        # Its stale pin was just shed and nothing is
                        # free: it waits on as an unpinned task.
                        ready.add(task, now)
                        continue
                    node = self._emptiest_node()
                started = self._try_start(task, node, events)
                if started is None:
                    # Memory admission deferred the task.
                    self._sched_info[task.task_id]["mem_deferred"] = True
                    oom_waiting.append(task)
                else:
                    free -= 1

        def check_progress_crashes(time):
            if self._faults is None or initial_total == 0:
                return
            for crash in self._faults.crashes:
                if (not crash.fired and crash.at_progress is not None
                        and completions >= crash.at_progress * initial_total):
                    fire_crash(crash, time)

        try:
            rebuild_schedule(self.now)
            # Nodes whose post-crash restart completed while the engine
            # was between runs rejoin now; in-run restarts get events.
            for name in sorted(self._pending_recover):
                at = self._pending_recover[name]
                if at <= self.now:
                    self._revive(name)
                else:
                    heap_faults[0] += 1
                    self._push_event(
                        events, at, self._next_fault_tiebreak(), "recover", name
                    )
            # Arm this plan's unfired time-based crashes.
            if self._faults is not None:
                for crash in self._faults.crashes:
                    if crash.fired or crash.at_time is None:
                        continue
                    heap_faults[0] += 1
                    self._push_event(
                        events, max(crash.at_time, self.now),
                        self._next_fault_tiebreak(), "crash", crash,
                    )

            start_candidates()
            if not events and (ready or oom_waiting):
                raise _deadlock(ready.first() if ready else oom_waiting[0])

            inflight = self._inflight
            advance_to = self.clock.advance_to
            record_task = self.obs.record_task
            sched_info = self._sched_info
            while events:
                if (not inflight and not ready and not oom_waiting
                        and len(events) == heap_faults[0]):
                    # Only future fault events remain.  If the DAG is
                    # done, leave them for the next run instead of
                    # advancing the clock past the real makespan.
                    unfinished = [
                        t for t in pending.values()
                        if t.task_id not in self.completed
                    ]
                    if not unfinished:
                        break
                    raise _deadlock(unfinished[0])
                time, _tiebreak, _seq, kind, payload = heapq.heappop(events)
                if kind in ("complete", "task-fail"):
                    key = (payload[0].task_id, payload[-1])
                    if key in cancelled:
                        # The attempt died with its node; drop the
                        # event without advancing the clock.
                        cancelled.discard(key)
                        continue
                elif kind in ("crash", "recover"):
                    heap_faults[0] -= 1
                advance_to(time)
                if kind == "crash":
                    if not payload.fired:
                        fire_crash(payload, time)
                elif kind == "recover":
                    self._revive(payload)
                elif kind == "task-fail":
                    self._handle_task_fail(payload, time)
                    # The retry sleeps behind a new, later floor.
                    timers_set.discard(payload[0].task_id)
                    admit([payload[0]])
                elif kind == "complete":
                    task, node, alloc_id, value, _attempt = payload
                    inflight.pop(task.task_id, None)
                    node.busy_slots -= 1
                    if alloc_id is not None:
                        node.memory.free(alloc_id)
                    result = TaskResult(
                        task, value, self._start_times[task.task_id], time, node.name
                    )
                    self.completed[task.task_id] = result
                    run_results[task.task_id] = result
                    self.task_trace.append((task.name, node.name, result.start_time, time))
                    info = sched_info.get(task.task_id, {})
                    record_task(
                        task.name, node.name, result.start_time, time,
                        task_id=task.task_id,
                        category=info.get("category", task.category),
                        op=info.get("op", task.op),
                        queued=info.get("queued"),
                        ready=info.get("ready"),
                        not_before=task.not_before,
                        mem_deferred=info.get("mem_deferred", False),
                        transfer_s=info.get("transfer_s", 0.0),
                        compute_s=info.get("compute_s"),
                        spill_s=info.get("spill_s", 0.0),
                        dep_ids=tuple(d.task_id for d in task.dependencies()),
                        retried=info.get("retried", False),
                    )
                    if bus:
                        bus.emit(
                            TaskFinished(
                                time, task.name, task.task_id, node.name,
                                result.start_time,
                            )
                        )
                    newly_ready = []
                    for child in dependents.get(task.task_id, ()):
                        waiting_deps[child.task_id] -= 1
                        if waiting_deps[child.task_id] == 0:
                            sched_info[child.task_id]["ready"] = time
                            newly_ready.append(child)
                    # Retry memory-deferred tasks now that memory may
                    # have freed; they re-enter the ready set in plain
                    # task-id order alongside newly-ready tasks.
                    if oom_waiting:
                        newly_ready.extend(oom_waiting)
                        oom_waiting.clear()
                    if newly_ready:
                        admit(newly_ready)
                    completions += 1
                    check_progress_crashes(time)
                start_candidates()
                if not events and (ready or oom_waiting):
                    raise _deadlock(ready.first() if ready else oom_waiting[0])
        except BaseException:
            # Whatever aborted the run, in-flight attempts must not
            # leak their slots or memory reservations.
            self._drain_inflight()
            raise

        return run_results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _handle_task_fail(self, payload, time):
        """An injected transient failure was detected; retry or give up.

        Returns with ``task.not_before`` raised by the backoff; the
        caller puts the task back in the ready set.
        """
        task, node, alloc_id, _end, _attempt = payload
        tid = task.task_id
        self._inflight.pop(tid, None)
        if node.alive:
            node.busy_slots -= 1
        if alloc_id is not None:
            node.memory.free(alloc_id)
        node.failed_tasks += 1
        attempts = self._attempts.get(tid, 0) + 1
        self._attempts[tid] = attempts
        start = self._start_times.get(tid, time)
        # Record the failed attempt's extent (no task_id: the eventual
        # successful attempt owns the id in the critical-path DAG).
        self.obs.record_task(task.name, node.name, start, time,
                             category=task.category, op=task.op)
        bus = self.obs.events
        if bus:
            bus.emit(TaskFailed(time, task.name, tid, node.name,
                                "injected transient failure"))
        retry = self._faults.retry_policy
        if attempts >= retry.max_attempts:
            raise TaskFailedError(
                task.name,
                RuntimeError(f"transient failure persisted for"
                             f" {attempts} attempt(s)"),
                node=node.name,
                category=task.category,
            )
        node.retried_tasks += 1
        task.not_before = max(task.not_before, time + retry.backoff(attempts))
        info = self._sched_info.get(tid)
        if info is not None:
            info["ready"] = time
            info["retried"] = True
        if bus:
            bus.emit(TaskRetried(time, task.name, tid, node.name, attempts + 1))

    def _collect(self, tasks):
        """Transitively gather the task set, keyed by id.

        A task that completed earlier but whose result died with a
        crashed node is collected again: resubmitting it (or anything
        depending on it) recomputes it from lineage.
        """
        pending = {}
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
                del self.completed[task.task_id]
                self._lost_results.discard(task.task_id)
                self._resurrected.add(task.task_id)
                if task.node is not None:
                    owner = self.nodes.get(task.node)
                    if (owner is None or not owner.alive
                            or task.node in self._blacklisted):
                        task.node = None
            pending[task.task_id] = task
            stack.extend(task.dependencies())
        return pending

    def _pinned_node(self, task):
        """The node ``task`` is pinned to, or ``None`` once a stale pin is shed.

        Dead and blacklisted nodes are never eligible.  A task pinned
        to one is silently unpinned under the "recompute" recovery
        policy (lineage recompute runs wherever survivors have slots);
        under "abort" the stranded pin surfaces as
        :class:`NodeCrashedError` so the engine can wait or restart.
        """
        node = self.node(task.node)
        if node.alive and node.name not in self._blacklisted:
            return node
        if self.recovery_policy.mode != RecoveryPolicy.RECOMPUTE:
            raise NodeCrashedError(
                node.name, self.now,
                recover_at=self._pending_recover.get(node.name),
            )
        task.node = None
        return None

    def _emptiest_node(self):
        """The usable node with the most free slots, first in
        ``node_order`` on ties; ``None`` when no slot is free."""
        best = None
        most = 0
        blacklisted = self._blacklisted
        for name in self.node_order:
            node = self.nodes[name]
            if node.alive and name not in blacklisted:
                free = node.slots - node.busy_slots
                if free > most:
                    best, most = node, free
        return best

    def _try_start(self, task, node, events):
        """Begin executing ``task`` on ``node``.

        Returns True once the task holds a slot, and None when the
        "wait" OOM policy defers it (no slot taken, nothing allocated);
        raises :class:`OutOfMemoryError` under the "fail" policy or when
        the task can never fit, and :class:`TaskFailedError` when the
        task body raises.
        """
        spill_bytes = 0
        alloc_id = None
        if task.memory_bytes > 0:
            if node.memory.would_fit(task.memory_bytes):
                alloc_id = node.memory.allocate(task.memory_bytes, task.name)
            elif task.on_oom == "wait":
                if task.memory_bytes > node.memory.capacity_bytes:
                    raise OutOfMemoryError(
                        node.name,
                        task.memory_bytes,
                        node.memory.capacity_bytes,
                        task.name,
                    )
                return None
            elif task.on_oom == "spill":
                spill_bytes = task.memory_bytes - node.memory.available_bytes
                fit_bytes = task.memory_bytes - spill_bytes
                if fit_bytes > 0:
                    alloc_id = node.memory.allocate(fit_bytes, task.name)
                node.memory.note_spill(spill_bytes, task.name)
            else:  # "fail"
                node.memory.record_oom(task.memory_bytes, task.name)
                raise OutOfMemoryError(
                    node.name,
                    task.memory_bytes,
                    node.memory.available_bytes,
                    task.name,
                )

        attempt = self._attempts.get(task.task_id, 0)

        # Injected transient failure: the attempt occupies its slot for
        # the detection delay, never running the task body (whose side
        # effects and cost closures must only happen once).
        if self._faults is not None:
            detect_delay = self._faults.task_should_fail(task, attempt + 1)
            if detect_delay is not None:
                start = self.now
                end = start + detect_delay
                node.busy_slots += 1
                node.busy_seconds += detect_delay
                self._start_times[task.task_id] = start
                self._inflight[task.task_id] = (
                    task, node, alloc_id, end, attempt
                )
                if self.obs.events:
                    self.obs.events.emit(
                        TaskPlaced(start, task.name, task.task_id, node.name)
                    )
                    self.obs.events.emit(
                        TaskStarted(start, task.name, task.task_id, node.name)
                    )
                self._push_event(
                    events, end, task.task_id, "task-fail",
                    (task, node, alloc_id, end, attempt),
                )
                return True

        resolved_args = [self._resolve(a) for a in task.args]
        resolved_kwargs = {k: self._resolve(v) for k, v in task.kwargs.items()}

        transfer = 0.0
        for dep in task.dependencies():
            dep_result = self.completed[dep.task_id]
            if dep.output_bytes > 0 and dep_result.node != node.name:
                transfer += self.network.transfer_time(
                    dep.output_bytes, dep_result.node, node.name
                )

        # Real computation runs first so that cost callables may price
        # the work from its actual outputs.
        s3_delay_before = self.object_store.total_retry_delay_s
        if task.fn is not None:
            try:
                value = task.fn(*resolved_args, **resolved_kwargs)
            except Exception as exc:  # noqa: BLE001 - rewrapped with context
                if alloc_id is not None:
                    node.memory.free(alloc_id)
                if self.obs.events:
                    self.obs.events.emit(
                        TaskFailed(
                            self.now, task.name, task.task_id, node.name,
                            repr(exc),
                        )
                    )
                raise TaskFailedError(
                    task.name, exc, node=node.name, category=task.category
                ) from exc
        else:
            value = None

        if callable(task.duration):
            duration = float(task.duration(*resolved_args, **resolved_kwargs))
        else:
            duration = float(task.duration)
        if self._faults is not None:
            # Stragglers stretch this node's compute; transient S3
            # retries hit during fn stretch it by their total backoff.
            duration *= self._faults.slowdown(node.name)
            duration += self.object_store.total_retry_delay_s - s3_delay_before
        compute_seconds = duration
        if spill_bytes > 0:
            duration += self.cost_model.disk_write_time(spill_bytes)
            duration += self.cost_model.disk_read_time(spill_bytes)

        info = self._sched_info.get(task.task_id)
        if info is not None:
            info["transfer_s"] = transfer
            info["compute_s"] = compute_seconds
            info["spill_s"] = duration - compute_seconds

        start = self.now
        end = start + transfer + duration
        node.busy_slots += 1
        node.busy_seconds += transfer + duration
        self._start_times[task.task_id] = start
        self._inflight[task.task_id] = (task, node, alloc_id, end, attempt)
        if self.obs.events:
            self.obs.events.emit(
                TaskPlaced(start, task.name, task.task_id, node.name)
            )
            self.obs.events.emit(
                TaskStarted(start, task.name, task.task_id, node.name)
            )
        self._push_event(
            events, end, task.task_id, "complete",
            (task, node, alloc_id, value, attempt),
        )
        return True

    def _resolve(self, arg):
        if isinstance(arg, Task):
            return self.completed[arg.task_id].value
        return arg

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

    def reset_clock(self):
        """Rewind the clock (between benchmark trials on one cluster)."""
        self.clock.reset()
        self.task_trace.clear()
        self.obs.reset()
        for node in self.nodes.values():
            node.busy_seconds = 0.0
