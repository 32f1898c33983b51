"""Span-based tracing: named, nested extents of engine work.

Engines wrap logical units (a Spark stage, a Myria statement, a Dask
barrier) in spans::

    with cluster.obs.span("spark-stage0", category="spark"):
        cluster.run(tasks)

Because the simulator is single-threaded and synchronous, the stack of
currently-open spans is a faithful parent chain: every task recorded
while a span is open belongs to it, which replaces the old
name-prefix-grouping heuristic with explicit structure.

A span places a record; it never names the record's logical op.  The
op is a required argument wherever a record is made (``Task``,
``charge_master``, :meth:`Observability.record_task`), checked by
:func:`check_op`, and filing leaves it as it is.
"""

from contextlib import contextmanager

#: Pseudo-ops a record is stamped with when its work implements no
#: logical operator.  Real provenance ids are ``"<plan>/<op_id>"``
#: (``repro.plan.ir.provenance_id``); the ``@`` prefix keeps these
#: disjoint.  They live here, below both ``repro.plan`` and
#: ``repro.cluster``, so either can stamp them; ``repro.plan.ir``
#: re-exports them.
PSEUDO_OVERHEAD = "@overhead"
PSEUDO_RECOVERY = "@recovery"
PSEUDO_IDLE = "@idle"
PSEUDO_OPS = (PSEUDO_OVERHEAD, PSEUDO_RECOVERY, PSEUDO_IDLE)


def check_op(op, name):
    """Raise unless ``op`` is a provenance id or pseudo-op string.

    Every task, coordinator charge and record names its op where it is
    made; nothing downstream fills one in."""
    if not isinstance(op, str):
        raise TypeError(
            f"{name!r}: op must be a provenance id or pseudo-op str,"
            f" got {op!r}"
        )


class Span:
    """One named extent of simulated time, with a parent link."""

    __slots__ = ("span_id", "name", "category", "parent", "start", "end", "attrs")

    def __init__(self, span_id, name, start, category=None, parent=None,
                 attrs=None):
        self.span_id = span_id
        self.name = name
        self.category = category
        self.parent = parent
        self.start = start
        self.end = None
        self.attrs = dict(attrs or {})

    @property
    def parent_id(self):
        """Parent span id, or -1 at the root."""
        return self.parent.span_id if self.parent is not None else -1

    @property
    def duration(self):
        """Simulated seconds covered; ``None`` while still open."""
        return None if self.end is None else self.end - self.start

    @property
    def depth(self):
        """Nesting depth (0 for root spans)."""
        depth = 0
        span = self.parent
        while span is not None:
            depth += 1
            span = span.parent
        return depth

    def __repr__(self):
        state = "open" if self.end is None else f"{self.duration:.3f}s"
        return f"Span({self.name!r}, {state})"


class SpanStore:
    """All spans of one cluster, plus the stack of open ones."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0

    def open(self, name, time, category=None, attrs=None):
        """Open a span at ``time``, nested under the current one."""
        span = Span(
            self._next_id, name, time, category=category,
            parent=self.current(), attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span, time):
        """Close ``span`` at ``time``; spans must close innermost-first."""
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order"
            )
        self._stack.pop()
        span.end = time

    def current(self):
        """The innermost open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    def clear(self):
        """Drop all spans (between benchmark trials on one cluster)."""
        self.spans.clear()
        self._stack.clear()

    def __len__(self):
        return len(self.spans)


class TaskRecord:
    """One executed task, tagged with the span it ran under.

    Beyond the ``[start, end]`` slot extent, a record carries the
    scheduling history that critical-path analysis needs: when the
    task was queued, when its last dependency resolved (``ready``), its
    dispatch floor (``not_before``), whether memory admission deferred
    it, the transfer/compute/spill decomposition of its extent, and the
    ids of its dependencies.  The executor opens a task's record when it
    admits the task, each field is written by whoever learns the fact,
    and completion files it (:meth:`Observability.file_record`); until
    then ``node``, ``start`` and ``end`` may be ``None``.  ``op`` -- the
    provenance id of the plan op the work implements, or a pseudo-op --
    is required: whoever makes the record names it.
    """

    __slots__ = (
        "name",
        "node",
        "start",
        "end",
        "span",
        "task_id",
        "category",
        "op",
        "queued",
        "ready",
        "not_before",
        "mem_deferred",
        "transfer_s",
        "compute_s",
        "spill_s",
        "dep_ids",
        "retried",
    )

    def __init__(self, name, node, start, end, *, op, span=None,
                 task_id=None, category=None, queued=None, ready=None,
                 not_before=0.0, mem_deferred=False, transfer_s=0.0,
                 compute_s=None, spill_s=0.0, dep_ids=(), retried=False):
        check_op(op, name)
        self.name = name
        self.node = node
        self.start = start
        self.end = end
        self.span = span
        self.task_id = task_id
        self.category = category
        self.op = op
        self.queued = queued
        self.ready = ready
        self.not_before = not_before
        self.mem_deferred = mem_deferred
        self.transfer_s = transfer_s
        # Untracked records (coordinator charges, synthesized traces)
        # count their whole extent as compute.
        if compute_s is None:
            compute_s = (end - start) - transfer_s - spill_s
        self.compute_s = compute_s
        self.spill_s = spill_s
        self.dep_ids = tuple(dep_ids)
        self.retried = retried

    @property
    def duration(self):
        """Simulated seconds the task occupied its slot."""
        return self.end - self.start

    def __repr__(self):
        return (
            f"TaskRecord({self.name!r} on {self.node},"
            f" {self.start:.3f}-{self.end:.3f})"
        )


class Observability:
    """Per-cluster observability state: spans and task records.

    Owned by :class:`~repro.cluster.cluster.SimulatedCluster` as
    ``cluster.obs``; engines only ever need :meth:`span`, consumers
    read ``obs.task_records`` and ``obs.spans`` after a run.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans = SpanStore()
        self.task_records = []

    @contextmanager
    def span(self, name, category=None, **attrs):
        """Open a named span for the duration of the ``with`` block."""
        span = self.spans.open(
            name, self.clock.now, category=category, attrs=attrs
        )
        try:
            yield span
        finally:
            self.spans.close(span, self.clock.now)

    def file_record(self, record):
        """File a finished record under the currently-open span.

        Filing is pure bookkeeping: it never touches the clock, and it
        never changes the record's ``op``.
        """
        record.span = self.spans.current()
        self.task_records.append(record)

    def record_task(self, name, node, start, end, *, op, **meta):
        """File a record of work that has no task id: a coordinator
        charge, or the lost extent of an attempt that died.  ``op`` is
        required; ``meta`` carries optional :class:`TaskRecord` fields
        (``category``, ...)."""
        self.file_record(TaskRecord(name, node, start, end, op=op, **meta))

    def reset(self):
        """Drop spans and records (used by ``cluster.reset_clock``)."""
        self.spans.clear()
        self.task_records.clear()
