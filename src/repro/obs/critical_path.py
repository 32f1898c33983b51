"""Critical-path reconstruction and per-resource blame attribution.

Turns a run's task records into a causal explanation of its makespan:
walk backward from the last-finishing task, covering simulated time with
typed segments --

- ``compute`` / ``transfer`` / ``spill``: a task extent, split using the
  decomposition the executor recorded (dependency transfers, modeled
  compute, spill disk traffic);
- ``dispatch-delay``: the task was ready but its ``not_before`` floor
  (centralized scheduler dispatch) had not passed;
- ``memory-wait`` / ``resource-wait``: the task was ready and
  dispatchable but memory admission or slot contention held it back;
- ``idle``: nothing recorded was running (gaps between ``cluster.run``
  calls that no coordinator charge covers).

At each step the walk prefers the *binding dependency* (the predecessor
whose completion made the task ready); when a task was ready the moment
it was queued, the record whose extent reaches closest to the current
frontier takes over instead -- that is how serialized coordinator work
(``charge_master``) and earlier pipeline stages join the path.

Because the segments tile ``[epoch, makespan]`` exactly, blame fractions
sum to 1 by construction, and the path length (the extent segments only)
can never exceed the makespan; for a pure chain DAG the two are equal.
"""

from bisect import bisect_left
from collections import defaultdict

from repro.obs.breakdown import default_grouper, records_of

#: Segment kinds that represent actual work on the path (the "path
#: length"), as opposed to waiting or idle time.
EXTENT_KINDS = ("compute", "transfer", "spill")

#: Segment kinds for time a ready task spent waiting to start.
#: ``recovery-wait`` covers the ready->start gap of retried/recomputed
#: task attempts (failure detection plus retry backoff).
WAIT_KINDS = ("dispatch-delay", "memory-wait", "resource-wait", "recovery-wait")

_EPS = 1e-9


def blame_category(record):
    """Blame label of one record: explicit engine tag, else name prefix."""
    if record.category is not None:
        return record.category
    return default_grouper(record.name)


class PathSegment:
    """One typed interval of the critical path."""

    __slots__ = ("kind", "category", "name", "node", "start", "end")

    def __init__(self, kind, category, name, node, start, end):
        self.kind = kind
        self.category = category
        self.name = name
        self.node = node
        self.start = start
        self.end = end

    @property
    def duration(self):
        """Simulated seconds this segment covers."""
        return self.end - self.start

    def __repr__(self):
        return (
            f"PathSegment({self.kind} {self.category!r},"
            f" {self.start:.3f}-{self.end:.3f})"
        )


class CriticalPath:
    """The reconstructed critical path of one run."""

    def __init__(self, segments, epoch, end, records=None):
        #: Segments in increasing-time order, tiling ``[epoch, end]``.
        self.segments = segments
        self.epoch = epoch
        self.end = end
        self._records = records or {}

    @property
    def makespan(self):
        """Total simulated seconds the path explains."""
        return self.end - self.epoch

    @property
    def path_length(self):
        """Seconds of actual work (compute/transfer/spill) on the path."""
        return sum(
            s.duration for s in self.segments if s.kind in EXTENT_KINDS
        )

    @property
    def wait_s(self):
        """Seconds a ready task spent waiting on the path."""
        return sum(s.duration for s in self.segments if s.kind in WAIT_KINDS)

    @property
    def idle_s(self):
        """Seconds nothing recorded was running."""
        return sum(s.duration for s in self.segments if s.kind == "idle")

    def record_for(self, segment):
        """The task record a segment was cut from (``None`` for idle)."""
        return self._records.get(id(segment))

    def blame(self):
        """Per-(category, kind) attribution rows, largest first.

        Rows: ``{"category", "kind", "seconds", "fraction"}``; fractions
        are of the makespan and sum to 1.0 (idle included).
        """
        totals = defaultdict(float)
        for segment in self.segments:
            totals[(segment.category, segment.kind)] += segment.duration
        makespan = self.makespan or 1.0
        rows = [
            {
                "category": category,
                "kind": kind,
                "seconds": seconds,
                "fraction": seconds / makespan,
            }
            for (category, kind), seconds in totals.items()
        ]
        rows.sort(key=lambda r: (-r["seconds"], r["category"], r["kind"]))
        return rows

    def __repr__(self):
        return (
            f"CriticalPath({len(self.segments)} segments,"
            f" {self.path_length:.3f}s work / {self.makespan:.3f}s makespan)"
        )


class _Handover:
    """Which record takes over when no dependency explains the frontier.

    The choice is the record starting before the frontier whose extent
    reaches closest to it: the maximum of ``(min(end, frontier), start,
    name)``, the first in ``records`` order winning a full tie.  Records
    are sorted once by ``(start, name)`` (stably, so ties keep
    ``records`` order) next to a running maximum of ``(end, start,
    name)``.  Those starting before the frontier are then a prefix found
    by bisection.  If the prefix maximum ends short of the frontier,
    every ``min`` is the record's own end and that maximum is the
    answer; otherwise every record reaching the frontier ties on the
    first key field, so the answer is the last of them in sort order,
    a short walk down from the end of the prefix.
    """

    def __init__(self, records):
        self._by_start = sorted(records, key=lambda r: (r.start, r.name))
        self._starts = [r.start for r in self._by_start]
        self._latest = []
        latest = latest_key = None
        for record in self._by_start:
            key = (record.end, record.start, record.name)
            if latest is None or key > latest_key:
                latest, latest_key = record, key
            self._latest.append(latest)

    def at(self, frontier):
        """The record to hand over to, or ``None`` if none starts earlier."""
        count = bisect_left(self._starts, frontier - _EPS)
        if not count:
            return None
        latest = self._latest[count - 1]
        if latest.end < frontier:
            return latest
        by_start = self._by_start
        index = count - 1
        while by_start[index].end < frontier:
            index -= 1
        chosen = by_start[index]
        # Records equal in (start, name) that also reach the frontier
        # tie in full: the earliest in ``records`` order wins.
        tie = (chosen.start, chosen.name)
        while index and (by_start[index - 1].start,
                         by_start[index - 1].name) == tie:
            index -= 1
            if by_start[index].end >= frontier:
                chosen = by_start[index]
        return chosen


def compute_critical_path(source):
    """Reconstruct the critical path of a cluster (or list of records).

    ``source`` is a :class:`~repro.cluster.cluster.SimulatedCluster`
    (records come from ``records_of``) or an iterable of
    :class:`~repro.obs.spans.TaskRecord`.
    """
    if hasattr(source, "obs"):
        records = records_of(source)
    else:
        records = list(source)
    if not records:
        return CriticalPath([], 0.0, 0.0)

    # The epoch reaches back to the earliest queue time so that
    # scheduling delay ahead of the first start stays inside the tiling.
    epoch = min(
        min(r.start, r.queued if r.queued is not None else r.start)
        for r in records
    )
    end = max(r.end for r in records)
    by_id = {r.task_id: r for r in records if r.task_id is not None}

    def order_key(record):
        return (record.end, record.start, record.name)

    segments = []
    seg_records = {}

    def emit(kind, record, lo, hi):
        if hi - lo <= 0:
            return
        category = blame_category(record) if record is not None else "(idle)"
        segment = PathSegment(
            kind,
            category,
            record.name if record is not None else None,
            record.node if record is not None else None,
            lo,
            hi,
        )
        segments.append(segment)
        if record is not None:
            seg_records[id(segment)] = record

    current = max(records, key=order_key)
    frontier = end
    handover = _Handover(records)
    # Each iteration strictly lowers the frontier or follows one DAG
    # edge (acyclic), so this terminates; the cap is a safety net.
    for _ in range(10 * len(records) + 100):
        r = current
        hi = min(r.end, frontier)
        # Decompose the extent [start, end] as [transfer][compute][spill]
        # and clip each piece to the uncovered window.
        t_end = r.start + r.transfer_s
        c_end = t_end + r.compute_s
        emit("transfer", r, r.start, min(t_end, hi))
        emit("compute", r, min(t_end, hi), min(c_end, hi))
        emit("spill", r, min(c_end, hi), hi)
        frontier = r.start

        # Time between becoming ready and starting: dispatch floor
        # first, then memory/slot contention.
        ready = r.ready if r.ready is not None else r.start
        if ready < frontier - _EPS:
            if r.retried:
                # A retried attempt's whole ready->start gap (failure
                # detection, retry backoff, waiting for a survivor
                # slot) is recovery overhead.
                emit("recovery-wait", r, ready, frontier)
                frontier = ready
            else:
                wait_kind = "memory-wait" if r.mem_deferred else "resource-wait"
                floor = r.not_before or 0.0
                if floor > ready + _EPS:
                    floor_end = min(floor, frontier)
                    emit(wait_kind, r, floor_end, frontier)
                    emit("dispatch-delay", r, ready, floor_end)
                else:
                    emit(wait_kind, r, ready, frontier)
                frontier = ready

        if frontier <= epoch + _EPS:
            # Sub-epsilon residue (degenerate scales): idle-fill so the
            # tiling invariant holds at any magnitude.
            emit("idle", None, epoch, frontier)
            break

        # Binding dependency: the predecessor whose completion made this
        # task ready (its end coincides with the frontier).  A dep that
        # starts at/after the frontier cannot explain it causally --
        # that happens when a crashed node's results were recomputed
        # *after* a consumer that read the originals; following it would
        # move the frontier backward-in-causality (forward in time).
        binding = [
            by_id[d]
            for d in r.dep_ids
            if d in by_id
            and by_id[d].end >= frontier - 1e-6
            and by_id[d].start < frontier - _EPS
        ]
        if binding:
            current = max(binding, key=order_key)
            # A dependency accepted within the tolerance may end just
            # short of the frontier: the gap is nobody's work.
            emit("idle", None, current.end, frontier)
            continue

        # No dependency explains the frontier: hand over to whichever
        # record's extent reaches closest to it (serialized coordinator
        # work, a previous cluster.run, or a concurrent straggler).
        current = handover.at(frontier)
        if current is None:
            emit("idle", None, epoch, frontier)
            frontier = epoch
            break
        covered = min(current.end, frontier)
        if covered < frontier - _EPS:
            emit("idle", None, covered, frontier)
            frontier = covered
    else:
        # Safety cap hit: account the remainder as idle so the tiling
        # invariant (fractions sum to 1) still holds.
        emit("idle", None, epoch, frontier)

    segments.sort(key=lambda s: (s.start, s.end))
    return CriticalPath(segments, epoch, end, records=seg_records)


def format_critical_path(path, top=12):
    """Plain-text blame report for one critical path."""
    lines = []
    makespan = path.makespan
    lines.append(
        f"Critical path: {path.path_length:.1f}s of work explains"
        f" {makespan:.1f}s makespan"
        f" (waits {path.wait_s:.1f}s, idle {path.idle_s:.1f}s)"
    )
    rows = path.blame()
    width = max([len(str(r["category"])) for r in rows[:top]] + [8])
    lines.append(
        f"  {'blame'.ljust(width)}  {'kind':<14}  {'seconds':>9}  {'share':>6}"
    )
    for row in rows[:top]:
        lines.append(
            f"  {str(row['category']).ljust(width)}  {row['kind']:<14}"
            f"  {row['seconds']:>9.1f}  {row['fraction']:>6.1%}"
        )
    if len(rows) > top:
        rest = sum(r["seconds"] for r in rows[top:])
        lines.append(
            f"  {'(other)'.ljust(width)}  {'':<14}  {rest:>9.1f}"
            f"  {rest / (makespan or 1.0):>6.1%}"
        )
    return "\n".join(lines)
