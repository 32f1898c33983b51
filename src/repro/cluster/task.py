"""Task abstraction executed by the simulated cluster.

A :class:`Task` couples *real* computation (``fn`` runs on actual NumPy
data) with *modeled* cost (``duration`` in simulated seconds, typically
derived from nominal paper-scale data sizes).  Engines express barriers,
pipelining, shuffles and placement purely through task dependency
structure and node pinning.
"""

import itertools
from math import inf
from types import MappingProxyType

from repro.obs.spans import check_op

#: Process-global on purpose.  A task id is an ordinal: it orders tasks
#: by creation (admission, tie-breaks) and keys lookups within one run.
#: It never reaches a task name, a fault draw or a snapshot, so a
#: trial's results do not depend on where the counter started.
_task_counter = itertools.count()

_OOM_POLICIES = ("fail", "wait", "spill")

#: The ``kwargs`` of every task given none: read-only, so it is shared.
_NO_KWARGS = MappingProxyType({})


class Upstream(tuple):
    """Distinct tasks, in first-seen order: a ``deps`` that many tasks
    share, such as the maps every reducer of a shuffle depends on.

    Repeats are dropped once, here.  A task given one (and no task in
    its arguments) keeps it as its upstream tuple, so the executor walks
    it once per run, not once per holder.
    """

    __slots__ = ()

    def __new__(cls, tasks=()):
        return super().__new__(cls, {task.task_id: task for task in tasks}.values())


class Task:
    """One schedulable unit of work.

    Parameters
    ----------
    name:
        Human-readable label used in error messages and traces.
    fn:
        Callable run when the task executes.  Any :class:`Task` instance
        appearing in ``args``/``kwargs`` is replaced by that task's
        result value.  ``None`` means a pure time-charge (no value).
    duration:
        Simulated seconds the task occupies its slot.  Either a float or
        a callable invoked with the resolved arguments (useful when the
        cost depends on an upstream result).
    node:
        Pin the task to a node name, or ``None`` to let the scheduler
        place it.
    deps:
        Extra dependencies beyond those implied by ``args``/``kwargs``.
    memory_bytes:
        Transient working-set size held while the task runs.
    output_bytes:
        Nominal size of the produced value; charged as a network
        transfer when a downstream task runs on a different node.
    on_oom:
        Policy when ``memory_bytes`` does not fit on the chosen node:
        ``"fail"`` aborts the run (Myria's pipelined execution),
        ``"wait"`` delays the task until memory frees (Spark's bounded
        task admission), ``"spill"`` charges disk traffic for the
        overflow and proceeds (Spark's spill-to-disk).
    not_before:
        Earliest simulated time the task may start, even if a slot is
        free (models serialized dispatch by central schedulers/masters).
    category:
        Blame-attribution label for critical-path analysis (e.g.
        ``"spark-denoise"``, ``"scidb-convert"``).  ``None`` falls back
        to the name-prefix grouping heuristic.
    op:
        Required, keyword-only: the provenance id of the logical plan
        op this task implements (``"neuro/denoise"``) or a pseudo-op
        (``"@overhead"``).  Its record carries exactly this op; a
        missing or non-``str`` op raises here.
    """

    __slots__ = (
        "task_id",
        "name",
        "fn",
        "args",
        "kwargs",
        "duration",
        "node",
        "deps",
        "memory_bytes",
        "output_bytes",
        "on_oom",
        "not_before",
        "category",
        "op",
        "_dependencies",
    )

    def __init__(
        self,
        name,
        fn=None,
        args=(),
        kwargs=None,
        duration=0.0,
        node=None,
        deps=(),
        memory_bytes=0,
        output_bytes=0,
        on_oom="fail",
        not_before=0.0,
        category=None,
        *,
        op,
    ):
        # The one check of ``op``: the task's record takes it as it is.
        if not isinstance(op, str):
            check_op(op, name)
        if on_oom not in _OOM_POLICIES:
            raise ValueError(
                f"on_oom must be one of {_OOM_POLICIES}, got {on_oom!r}"
            )
        if not callable(duration) and not 0 <= duration < inf:
            raise ValueError(f"duration must be finite, >= 0, got {duration}")
        if not 0 <= not_before < inf:
            raise ValueError(f"not_before must be finite, >= 0, got {not_before}")
        self.task_id = next(_task_counter)
        self.name = name
        self.fn = fn
        self.args = args = tuple(args)  # a tuple is kept, not copied
        self.kwargs = dict(kwargs) if kwargs else _NO_KWARGS
        self.duration = duration
        self.node = node
        self.deps = deps = deps if type(deps) is Upstream else tuple(deps)
        self.memory_bytes = int(memory_bytes)
        self.output_bytes = int(output_bytes)
        self.on_oom = on_oom
        self.not_before = float(not_before)
        self.category = category
        self.op = op
        # ``deps``, ``args`` and ``kwargs`` are never reassigned, so the
        # upstream set is fixed here, once: ``deps``, then the tasks in
        # ``args`` and ``kwargs``, each task once.
        seen = None
        for arg in (*args, *kwargs.values()) if kwargs else args:
            if isinstance(arg, Task):
                if seen is None:
                    seen = {dep.task_id: dep for dep in deps} if deps else {}
                seen[arg.task_id] = arg
        if seen is not None:
            self._dependencies = tuple(seen.values())
        elif type(deps) is Upstream or len(deps) < 2:
            # Distinct already (an ``Upstream`` is shared with its other
            # holders).
            self._dependencies = deps
        else:
            self._dependencies = tuple(
                {dep.task_id: dep for dep in deps}.values())

    def dependencies(self):
        """All upstream tasks: explicit ``deps`` plus tasks in arguments."""
        return self._dependencies

    def __repr__(self):
        return f"Task(#{self.task_id} {self.name!r})"
