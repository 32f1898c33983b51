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
from repro.cluster.task import Task, TaskResult
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


def _emptiest(nodes):
    """The node with the most free slots, the first of ``nodes`` on
    ties; ``None`` when no slot is free."""
    best = None
    most = 0
    for node in nodes:
        free = node.slots - node.busy_slots
        if free > most:
            best, most = node, free
    return best


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
        #: ``seq`` of the events, still in the heap, of attempts that
        #: died with their node.
        self.cancelled = set()
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
        """Drive the DAG to its makespan; returns ``{task_id: TaskResult}``."""
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
        cancelled = self.cancelled
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
            time, _tiebreak, seq, handler, payload = heapq.heappop(events)
            if cancelled and seq in cancelled:
                # The attempt died with its node: its event is dropped
                # without advancing the clock.
                cancelled.discard(seq)
            else:
                advance_to(time)
                handler(payload, time)
            self.start_candidates()
        return self.results

    def push(self, time, tiebreak, handler, payload):
        """Heap entries are ``(time, tiebreak, seq, handler, payload)``:
        at ``time`` the loop calls ``handler(payload, time)``.  Returns
        ``seq``, which identifies the event."""
        self.cluster._event_seq = seq = self.cluster._event_seq + 1
        heapq.heappush(self.events, (time, tiebreak, seq, handler, payload))
        return seq

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
        waiting-dependency counts.
        """
        completed = self.completed
        self.waiting_deps.clear()
        self.dependents.clear()
        self.ready.clear()
        self.oom_waiting.clear()
        for task in self.pending.values():
            if task.task_id in completed or task.task_id in self.inflight:
                continue
            open_deps = [
                d for d in task.dependencies() if d.task_id not in completed
            ]
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
            record = self.open_record(task, time)
            if open_deps:
                record.ready = None
            else:
                if record.ready is None:
                    record.ready = time
                self.ready.add(task, time)

    def open_record(self, task, time):
        """The record of ``task`` as it is (re)admitted at ``time``.

        A task resurrected after a crash starts a fresh record; one that
        an aborted run admitted before keeps its own, first ``queued``
        time included.
        """
        tid = task.task_id
        resurrected = tid in self.cluster._resurrected
        record = self.records.get(tid)
        if resurrected or record is None:
            self.cluster._resurrected.discard(tid)
            record = self.records[tid] = TaskRecord(
                task.name, None, None, None, task_id=tid,
                category=task.category, op=task.op, queued=time,
                not_before=task.not_before, compute_s=0.0,
                dep_ids=[d.task_id for d in task.dependencies()],
                retried=resurrected,
            )
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
                    node = _emptiest(usable.values())
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
        self.occupy(self.on_complete, task, record, node, alloc_id,
                    transfer, duration, value)
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
        args = [completed[a.task_id].value if isinstance(a, Task) else a
                for a in task.args]
        kwargs = {k: completed[v.task_id].value if isinstance(v, Task) else v
                  for k, v in task.kwargs.items()}
        transfer = 0.0
        for dep in task._dependencies:
            if dep.output_bytes > 0:
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
               duration, value=None):
        """The attempt takes a slot of ``node`` from now until ``ending``
        handles its event, ``transfer + duration`` seconds on."""
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
        seq = self.push(end, tid, ending, (task, node, alloc_id, value))
        self.inflight[tid] = (task, node, alloc_id, end, seq)

    # -- Event handlers, one per kind: handler(payload, time) --

    def on_complete(self, payload, time):
        """An attempt finished: file its record, release its children."""
        task, node, alloc_id, value = payload
        tid = task.task_id
        self.inflight.pop(tid, None)
        node.busy_slots -= 1
        if node.busy_slots == node.slots - 1:
            self.ready.reopen(node.name)
        self.free_slots += 1
        if self.free_slots == 1:
            self.ready.reopen(None)
        if alloc_id is not None:
            node.memory.free(alloc_id)
        record = self.records.pop(tid)
        record.end = time
        result = TaskResult(task, value, record.start, time, node.name)
        self.completed[tid] = result
        self.results[tid] = result
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

    def on_task_fail(self, payload, time):
        """An injected transient failure was detected: retry behind a
        backoff floor, or give up."""
        task, node, alloc_id, _value = payload
        cluster = self.cluster
        tid = task.task_id
        self.inflight.pop(tid, None)
        if node.alive:
            node.busy_slots -= 1
            if node.busy_slots == node.slots - 1:
                self.ready.reopen(node.name)
            self.free_slots += 1
            if self.free_slots == 1:
                self.ready.reopen(None)
        if alloc_id is not None:
            node.memory.free(alloc_id)
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
            task, on_node, _alloc, end, seq = self.inflight[tid]
            if on_node is node:
                del self.inflight[tid]
                self.cancelled.add(seq)
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
