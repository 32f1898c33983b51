"""One execution of a task DAG on a :class:`SimulatedCluster`.

``SimulatedCluster.run(tasks)`` builds one :class:`Run` per call.  The
run owns what lives as long as the call (the event heap, the ready set,
the open-dependency counts) and reaches through ``cluster`` for what
outlives it (results, the records of unfinished tasks, fault
bookkeeping).  Its loop pops an event, advances the clock, hands the
event to the handler of its kind and starts whatever became startable;
fault work lives in the handlers that only fault events reach.
"""

import heapq
from math import inf

from repro.cluster.errors import (
    NodeCrashedError,
    OutOfMemoryError,
    PlacementError,
    TaskFailedError,
)
from repro.cluster.faults import RecoveryPolicy
from repro.cluster.ready import ReadySet
from repro.cluster.task import Task
from repro.obs.spans import PSEUDO_RECOVERY, TaskRecord

#: Heap tiebreak of crash and recover events: above every task id, so
#: they sort after the task events of the same instant and, among
#: themselves, in push order.
_AFTER_TASKS = 10 ** 9


def _deadlock(blocked):
    """The error for a run that cannot go on, blamed on ``blocked``."""
    return TaskFailedError(
        blocked.name,
        RuntimeError("deadlock: task cannot start (insufficient memory or slots)"),
        category=blocked.category,
    )


class Run:
    """The state and the event handlers of one ``SimulatedCluster.run()``."""

    def __init__(self, cluster, pending):
        self.cluster = cluster
        #: task_id -> Task to finish; a crash adds the results it lost.
        self.pending = pending
        self.policy = cluster.recovery_policy
        self.obs = cluster.obs
        self.clock = cluster.clock
        self.completed = cluster.completed
        self.records = cluster._records
        self.inflight = cluster._inflight
        self.results = {}
        self.events = []  # heap of (time, tiebreak, seq, handler, payload)
        self.ready = ReadySet()
        self.waiting_deps = {}  # task_id -> count of open dependencies
        self.dependents = {}  # task_id -> tasks it holds back
        self.oom_waiting = []  # tasks memory admission deferred
        #: The upstream tuple of the task last started, and those of its
        #: tasks with output bytes to move.  A shuffle's reducers share
        #: one (an ``Upstream``) and start in a row, so it is filtered
        #: once for them; a rebuild, which may rerun an upstream task,
        #: clears it.
        self.sized_upstream = (None, ())
        self.initial_total = len(pending)
        self.completions = 0
        #: Count of crash and recover events currently in the heap, so
        #: the only-fault-events-left check is one integer compare.
        self.fault_events = 0
        #: ``{name: node}`` of the nodes that may take work, and the
        #: free slots across them.  Rederived only where a node dies or
        #: rejoins (:meth:`refresh_usable`); a slot taken or given back
        #: adjusts ``free_slots`` and tells ``ready`` of a pin it shuts.
        self.usable = {}
        self.free_slots = 0

    # -- The loop --

    def run(self):
        """Drive the DAG to its makespan; returns ``{task_id: filed
        TaskRecord}`` of the tasks it finished."""
        now = self.clock.now
        self.rebuild_schedule(now)
        self.arm_faults(now)
        self.refresh_usable()
        self.start_candidates()

        events = self.events
        inflight = self.inflight
        ready = self.ready
        asleep = ready.asleep
        oom_waiting = self.oom_waiting
        advance_to = self.clock.advance_to
        while events or asleep:
            if asleep:
                # A sleeper wakes the loop without an event of its own
                # when its (floor, task id) comes before the next event.
                floor, task_id, _task = asleep[0]
                if (not events or floor < events[0][0]
                        or (floor == events[0][0] and task_id < events[0][1])):
                    advance_to(floor)
                    self.start_candidates()
                    continue
            elif (not inflight and not ready and not oom_waiting
                    and len(events) == self.fault_events):
                # Only future fault events remain.  If the DAG is done,
                # leave them for the next run instead of advancing the
                # clock past the real makespan.
                unfinished = [
                    t for t in self.pending.values()
                    if t.task_id not in self.completed
                ]
                if not unfinished:
                    break
                raise _deadlock(unfinished[0])
            time, tiebreak, _seq, handler, payload = heapq.heappop(events)
            # An attempt that died with its node is no longer in flight:
            # its event is dropped without advancing the clock.
            if tiebreak >= _AFTER_TASKS or inflight.get(tiebreak) is payload:
                advance_to(time)
                handler(payload, time)
            self.start_candidates()
        return self.results

    def push(self, time, tiebreak, handler, payload):
        """Heap entries are ``(time, tiebreak, seq, handler, payload)``:
        at ``time`` the loop calls ``handler(payload, time)``; ``seq``
        orders equal ``(time, tiebreak)`` entries by push order."""
        self.cluster._event_seq = seq = self.cluster._event_seq + 1
        heapq.heappush(self.events, (time, tiebreak, seq, handler, payload))

    def push_fault(self, time, handler, payload):
        self.fault_events += 1
        self.push(time, _AFTER_TASKS, handler, payload)

    def arm_faults(self, now):
        """Schedule the restarts and timed crashes this run may see."""
        cluster = self.cluster
        # Nodes whose post-crash restart completed while the engine was
        # between runs rejoin now; in-run restarts get events.
        for name in sorted(cluster._pending_recover):
            at = cluster._pending_recover[name]
            if at <= now:
                cluster._revive(name)
            else:
                self.push_fault(at, self.on_recover, name)
        if cluster._faults is not None:
            for crash in cluster._faults.crashes:
                if not crash.fired and crash.at_time is not None:
                    self.push_fault(max(crash.at_time, now), self.on_crash, crash)

    def refresh_usable(self):
        """Rederive ``usable``, ``free_slots`` and ``ready``'s shut pins."""
        self.usable = usable = self.cluster._usable_nodes()
        self.free_slots = sum(
            node.slots - node.busy_slots for node in usable.values()
        )
        self.ready.reset_shut(usable, self.free_slots)

    # -- Readiness --

    def rebuild_schedule(self, time):
        """(Re)derive readiness state from ``pending``.

        Called once at run start and again after every crash, when
        requeued and resurrected tasks invalidate the incremental
        waiting-dependency counts.  Tasks that share one upstream tuple
        (the ``Upstream`` of a shuffle's reducers) come in a row, and its
        open dependencies and ids are derived once for the row.
        """
        completed = self.completed
        self.waiting_deps.clear()
        self.dependents.clear()
        self.ready.clear()
        self.oom_waiting.clear()
        self.sized_upstream = (None, ())
        upstream = None
        for task in self.pending.values():
            if task.task_id in completed or task.task_id in self.inflight:
                continue
            if task.dependencies() is not upstream:
                upstream = task.dependencies()
                open_deps = [d for d in upstream if d.task_id not in completed]
                dep_ids = tuple(d.task_id for d in upstream)
            for dep in open_deps:
                if dep.task_id not in self.pending:
                    raise TaskFailedError(
                        task.name,
                        RuntimeError(
                            f"dependency {dep.name!r} neither scheduled"
                            " nor completed"
                        ),
                        category=task.category,
                    )
                self.dependents.setdefault(dep.task_id, []).append(task)
            self.waiting_deps[task.task_id] = len(open_deps)
            record = self.open_record(task, time, dep_ids)
            if open_deps:
                record.ready = None
            else:
                if record.ready is None:
                    record.ready = time
                self.ready.add(task, time)

    def open_record(self, task, time, dep_ids):
        """The record of ``task`` as it is (re)admitted at ``time``;
        ``dep_ids`` are the ids of its upstream tasks.

        A task resurrected after a crash starts a fresh record; one that
        an aborted run admitted before keeps its own, first ``queued``
        time included.
        """
        tid = task.task_id
        resurrected = tid in self.cluster._resurrected
        record = self.records.get(tid)
        if resurrected or record is None:
            self.cluster._resurrected.discard(tid)
            record = self.records[tid] = TaskRecord.opened(
                task, time, dep_ids, resurrected)
            if resurrected and self.policy.recompute_category:
                # A lineage recompute is recovery work, whatever op the
                # lost result first implemented.
                record.category = self.policy.recompute_category
                record.op = PSEUDO_RECOVERY
        return record

    # -- Placement and starting --

    def start_candidates(self):
        """Start, in id order, every due task that has somewhere to run;
        a run left with ready tasks and no event to wait for is dead."""
        ready = self.ready
        now = self.clock.now
        if ready.has_due(now):
            usable = self.usable
            for task in ready.due(now):
                node = usable.get(task.node)
                if node is None:
                    if task.node is not None:
                        self.shed_stale_pin(task)
                    if self.free_slots <= 0:
                        # Its stale pin was just shed and nothing is
                        # free: it waits on as an unpinned task.
                        ready.add(task, now)
                        continue
                    # The node with the most free slots, the first on
                    # ties.
                    node = max(usable.values(),
                               key=lambda n: n.slots - n.busy_slots)
                if not self.start(task, node):
                    self.records[task.task_id].mem_deferred = True
                    self.oom_waiting.append(task)
        if (not self.events and not ready.asleep
                and (ready or self.oom_waiting)):
            raise _deadlock(ready.first() if ready else self.oom_waiting[0])

    def shed_stale_pin(self, task):
        """Unpin ``task`` from a dead or blacklisted node.

        Silently under the "recompute" recovery policy (lineage
        recompute runs wherever survivors have slots); under "abort" the
        stranded pin surfaces as :class:`NodeCrashedError` so the engine
        can wait or restart.
        """
        node = self.cluster.node(task.node)
        if self.policy.mode != RecoveryPolicy.RECOMPUTE:
            raise NodeCrashedError(
                node.name, self.clock.now,
                recover_at=self.cluster._pending_recover.get(node.name),
            )
        task.node = None

    def start(self, task, node):
        """Begin an attempt of ``task`` on ``node``.

        False when the "wait" OOM policy defers it (no slot taken,
        nothing allocated), True once it holds a slot; raises
        :class:`OutOfMemoryError` when it cannot be admitted and
        :class:`TaskFailedError` when the task body raises.
        """
        need = task.memory_bytes
        if need <= 0:
            alloc_id, spill_bytes = None, 0
        elif need <= node.memory.available_bytes:
            alloc_id, spill_bytes = node.memory.allocate(need, task.name), 0
        else:
            admitted = self.admit_memory(task, node)
            if admitted is None:
                return False
            alloc_id, spill_bytes = admitted
        cluster = self.cluster
        record = self.records[task.task_id]
        if cluster._faults is not None:
            # An injected transient failure holds its slot for the
            # detection delay and never runs the task body (whose side
            # effects and cost closures must only happen once).
            attempt = cluster._attempts.get(task.task_id, 0)
            detect_delay = cluster._faults.task_should_fail(task, attempt + 1)
            if detect_delay is not None:
                self.occupy(self.on_task_fail, task, record, node, alloc_id,
                            0.0, detect_delay)
                return True
        try:
            value, transfer, compute = self.run_body(task, node)
        except TaskFailedError:
            if alloc_id is not None:
                node.memory.free(alloc_id)
            raise
        duration = compute
        if spill_bytes > 0:
            duration += cluster.cost_model.disk_write_time(spill_bytes)
            duration += cluster.cost_model.disk_read_time(spill_bytes)
        record.transfer_s = transfer
        record.compute_s = compute
        record.spill_s = duration - compute
        record.value = value
        self.occupy(self.on_complete, task, record, node, alloc_id,
                    transfer, duration)
        return True

    def admit_memory(self, task, node):
        """Act on ``task``'s OOM policy: its working set does not fit.

        Returns ``(alloc_id, spill_bytes)``, or ``None`` when "wait"
        defers the task; raises :class:`OutOfMemoryError` under "fail"
        or when the task can never fit.
        """
        memory = node.memory
        need = task.memory_bytes
        if task.on_oom == "wait":
            if need > memory.capacity_bytes:
                raise OutOfMemoryError(
                    node.name, need, memory.capacity_bytes, task.name
                )
            return None
        if task.on_oom == "spill":
            spill_bytes = need - memory.available_bytes
            fit_bytes = need - spill_bytes
            alloc_id = None
            if fit_bytes > 0:
                alloc_id = memory.allocate(fit_bytes, task.name)
            memory.note_spill(spill_bytes)
            return alloc_id, spill_bytes
        memory.record_oom()  # "fail"
        raise OutOfMemoryError(
            node.name, need, memory.available_bytes, task.name
        )

    def run_body(self, task, node):
        """Run ``task.fn`` on its resolved inputs and price the attempt.

        The one place a task body runs.  Returns ``(value, transfer_s,
        compute_s)``: what the task produced, the seconds its inputs
        take to reach ``node``, and its modeled duration there.
        """
        cluster = self.cluster
        completed = self.completed
        args = task.args
        if args:
            args = [completed[a.task_id].value if isinstance(a, Task) else a
                    for a in args]
        kwargs = task.kwargs
        if kwargs:
            kwargs = {k: completed[v.task_id].value if isinstance(v, Task)
                      else v for k, v in kwargs.items()}
        upstream, sized = self.sized_upstream
        if task._dependencies is not upstream:
            upstream = task._dependencies
            sized = [dep for dep in upstream if dep.output_bytes > 0]
            self.sized_upstream = (upstream, sized)
        transfer = 0.0
        for dep in sized:
            source = completed[dep.task_id].node
            if source != node.name:
                transfer += cluster.network.transfer_time(
                    dep.output_bytes, source, node.name
                )
        # Real computation runs first so that cost callables may price
        # the work from its actual outputs.
        faults = cluster._faults
        if faults is not None:
            s3_delay_before = cluster.s3.total_retry_delay_s
        value = None
        if task.fn is not None:
            try:
                value = task.fn(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - rewrapped with context
                raise TaskFailedError(
                    task.name, exc, node=node.name, category=task.category
                ) from exc
        if callable(task.duration):
            compute = float(task.duration(*args, **kwargs))
        else:
            compute = float(task.duration)
        if not 0.0 <= compute < inf:  # NaN, inf or < 0 would poison the clock
            raise TaskFailedError(
                task.name, ValueError(f"priced at {compute!r} s"),
                node=node.name, category=task.category,
            )
        if faults is not None:
            # Stragglers stretch this node's compute; transient S3
            # retries hit during fn stretch it by their total backoff.
            compute *= faults.slowdown(node.name)
            compute += cluster.s3.total_retry_delay_s - s3_delay_before
        return value, transfer, compute

    def occupy(self, ending, task, record, node, alloc_id, transfer,
               duration):
        """The attempt takes a slot of ``node`` from now until ``ending``
        handles its event, ``transfer + duration`` seconds on.  Its
        in-flight entry ``(task, node, alloc_id, end)`` is the event's
        payload."""
        tid = task.task_id
        start = self.clock.now
        end = start + transfer + duration
        node.busy_slots += 1
        if node.busy_slots >= node.slots:
            self.ready.shut(node.name)
        self.free_slots -= 1
        if self.free_slots <= 0:
            self.ready.shut(None)
        node.busy_seconds += transfer + duration
        record.node = node.name
        record.start = start
        self.inflight[tid] = attempt = (task, node, alloc_id, end)
        self.push(end, tid, ending, attempt)

    def release(self, node, alloc_id):
        """An attempt gives back its slot of ``node`` and its memory."""
        node.busy_slots -= 1
        if node.busy_slots == node.slots - 1:
            self.ready.reopen(node.name)
        self.free_slots += 1
        if self.free_slots == 1:
            self.ready.reopen(None)
        if alloc_id is not None:
            node.memory.free(alloc_id)

    # -- Event handlers, one per kind: handler(payload, time) --

    def on_complete(self, attempt, time):
        """An attempt finished: file its record, which is the task's
        result, and release its children."""
        task, node, alloc_id, _end = attempt
        tid = task.task_id
        del self.inflight[tid]
        self.release(node, alloc_id)
        record = self.records.pop(tid)
        record.end = time
        self.completed[tid] = self.results[tid] = record
        self.obs.file_record(record)
        ready = self.ready
        waiting_deps = self.waiting_deps
        for child in self.dependents.get(tid, ()):
            waiting_deps[child.task_id] -= 1
            if waiting_deps[child.task_id] == 0:
                self.records[child.task_id].ready = time
                ready.add(child, time)
        # Retry memory-deferred tasks now that memory may have freed;
        # the ready set orders them by id among the newly-ready ones.
        for task in self.oom_waiting:
            ready.add(task, time)
        self.oom_waiting.clear()
        self.completions += 1
        if self.cluster._faults is not None:
            for crash in self.cluster._faults.crashes:
                if (not crash.fired and crash.at_progress is not None
                        and self.completions
                        >= crash.at_progress * self.initial_total):
                    self.fire_crash(crash, time)

    def on_task_fail(self, attempt, time):
        """An injected transient failure was detected: retry behind a
        backoff floor, or give up."""
        task, node, alloc_id, _end = attempt
        cluster = self.cluster
        tid = task.task_id
        del self.inflight[tid]
        self.release(node, alloc_id)
        self.attempt_died(task, node, time)
        attempts = cluster._attempts[tid] = cluster._attempts.get(tid, 0) + 1
        retry = cluster._faults.retry_policy
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
        record = self.records[tid]
        record.ready = time
        record.not_before = task.not_before
        record.retried = True
        # The retry sleeps behind its new floor -- unless a crash took a
        # dependency's result while this attempt held its slot: then the
        # recompute's completion readies it.
        lost = [
            d for d in task.dependencies() if d.task_id not in self.completed
        ]
        if lost:
            record.ready = None
            self.waiting_deps[tid] = len(lost)
            for dep in lost:
                self.dependents.setdefault(dep.task_id, []).append(task)
        else:
            self.ready.add(task, time)

    def on_recover(self, name, _time):
        self.fault_events -= 1
        self.cluster._revive(name)
        self.refresh_usable()

    def on_crash(self, crash, time):
        self.fault_events -= 1
        if not crash.fired:
            self.fire_crash(crash, time)

    # -- Crashes --

    def attempt_died(self, task, node, time):
        """File the lost extent of a dead attempt, so node-busy tiling
        (and blame, if it lands on the path) stays exact.  It carries no
        task id: the attempt that succeeds owns the id in the DAG."""
        node.failed_tasks += 1
        self.obs.record_task(
            task.name, node.name, self.records[task.task_id].start, time,
            category=task.category, op=task.op,
        )

    def fire_crash(self, crash, time):
        """Kill a node: wipe its state, then recover per policy."""
        cluster = self.cluster
        crash.fired = True
        node = cluster.nodes.get(crash.node)
        if node is None:
            raise PlacementError(
                f"fault plan crashes unknown node {crash.node!r}"
            )
        if not node.alive:
            return
        node.alive = False
        node.crash_count += 1
        killed = []
        for tid in sorted(self.inflight):
            task, on_node, _alloc, end = self.inflight[tid]
            if on_node is node:
                del self.inflight[tid]
                node.busy_seconds -= max(0.0, end - time)
                self.attempt_died(task, node, time)
                killed.append(task)
        node.busy_slots = 0
        node.memory.wipe()
        if crash.lose_disk:
            node.disk.wipe()
        for tid, res in self.completed.items():
            if res.node == node.name:
                cluster._lost_results.add(tid)
        recover_at = None
        if crash.restart_after is not None:
            recover_at = time + crash.restart_after
            cluster._pending_recover[node.name] = recover_at
            self.push_fault(recover_at, self.on_recover, node.name)
        if self.policy.mode == RecoveryPolicy.ABORT:
            raise NodeCrashedError(
                node.name, time, recover_at=recover_at,
                killed_tasks=tuple(t.name for t in killed),
            )
        if self.policy.blacklist:
            cluster._blacklisted.add(node.name)
        self.requeue(killed, node, time, recover_at)
        # Unpin not-yet-finished tasks stranded on the dead node.
        for task in self.pending.values():
            if task.node == node.name and task.task_id not in self.completed:
                task.node = None
        self.resurrect_lost_dependencies()
        self.rebuild_schedule(time)
        self.refresh_usable()

    def requeue(self, killed, node, time, recover_at):
        """Killed attempts run again, bounded by the recovery policy."""
        attempts_of = self.cluster._attempts
        for task in killed:
            attempts = attempts_of[task.task_id] = (
                attempts_of.get(task.task_id, 0) + 1
            )
            if attempts >= self.policy.max_task_failures:
                raise TaskFailedError(
                    task.name,
                    NodeCrashedError(node.name, time, recover_at=recover_at),
                    node=node.name,
                    category=task.category,
                )
            node.retried_tasks += 1
            self.cluster._resurrected.add(task.task_id)

    def resurrect_lost_dependencies(self):
        """Every result that died with a crashed node and is still
        needed, transitively, is recomputed from lineage on the
        survivors."""
        cluster = self.cluster
        completed = self.completed
        stack = [
            t for t in self.pending.values() if t.task_id not in completed
        ]
        seen = set()
        while stack:
            t = stack.pop()
            if t.task_id in seen:
                continue
            seen.add(t.task_id)
            for dep in t.dependencies():
                if (dep.task_id in cluster._lost_results
                        and dep.task_id in completed):
                    cluster._resurrect(dep)
                    self.pending[dep.task_id] = dep
                if dep.task_id not in completed:
                    stack.append(dep)
