"""A task's objects against the three-object path they replaced.

A task used to be three objects: its :class:`Task`, a ``TaskRecord``
built through the keyword constructor (which checked the op again and
copied ``dep_ids``), and a ``TaskResult`` that held the task, its value
and a copy of the record's extent.  Now the filed record is the result,
built in one step (:meth:`TaskRecord.opened`) from a task validated
once.  The old path is kept here as the reference: the tests hold the
new objects to its fields and errors, and
``benchmarks/test_task_path.py`` times one against the other.
"""

import itertools
from math import inf

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.cluster.task import Upstream
from repro.obs.spans import PSEUDO_OVERHEAD, TaskRecord, check_op

_reference_counter = itertools.count()


class _ReferenceTask:
    """``Task.__init__`` before it validated once: ``check_op`` called
    on every op, ``args`` and ``kwargs`` always copied, the upstream
    set built from the ``(*args, *kwargs.values())`` splat."""

    __slots__ = (
        "task_id", "name", "fn", "args", "kwargs", "duration", "node",
        "deps", "memory_bytes", "output_bytes", "on_oom", "not_before",
        "category", "op", "_dependencies",
    )

    _OOM_POLICIES = ("fail", "wait", "spill")

    def __init__(self, name, fn=None, args=(), kwargs=None, duration=0.0,
                 node=None, deps=(), memory_bytes=0, output_bytes=0,
                 on_oom="fail", not_before=0.0, category=None, *, op):
        check_op(op, name)
        if on_oom not in self._OOM_POLICIES:
            raise ValueError(
                f"on_oom must be one of {self._OOM_POLICIES}, got {on_oom!r}"
            )
        if not callable(duration) and not 0 <= duration < inf:
            raise ValueError(f"duration must be finite, >= 0, got {duration}")
        if not 0 <= not_before < inf:
            raise ValueError(f"not_before must be finite, >= 0, got {not_before}")
        self.task_id = next(_reference_counter)
        self.name = name
        self.fn = fn
        self.args = tuple(args)
        self.kwargs = dict(kwargs or {})
        self.duration = duration
        self.node = node
        self.deps = deps if type(deps) is Upstream else tuple(deps)
        self.memory_bytes = int(memory_bytes)
        self.output_bytes = int(output_bytes)
        self.on_oom = on_oom
        self.not_before = float(not_before)
        self.category = category
        self.op = op
        task_args = [arg for arg in (*self.args, *self.kwargs.values())
                     if isinstance(arg, Task)]
        if type(self.deps) is Upstream and not task_args:
            self._dependencies = self.deps
            return
        seen = {dep.task_id: dep for dep in self.deps}
        for arg in task_args:
            seen[arg.task_id] = arg
        self._dependencies = tuple(seen.values())

    def dependencies(self):
        return self._dependencies


class _ReferenceTaskRecord:
    """``TaskRecord`` before it had a ``value``: 17 slots, built through
    the keyword constructor, which checks the op and copies ``dep_ids``."""

    __slots__ = (
        "name", "node", "start", "end", "span", "task_id", "category", "op",
        "queued", "ready", "not_before", "mem_deferred", "transfer_s",
        "compute_s", "spill_s", "dep_ids", "retried",
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
        if compute_s is None:
            compute_s = (end - start) - transfer_s - spill_s
        self.compute_s = compute_s
        self.spill_s = spill_s
        self.dep_ids = tuple(dep_ids)
        self.retried = retried


class _ReferenceTaskResult:
    """The third object: the task, its value and its extent again."""

    __slots__ = ("task", "value", "start_time", "end_time", "node")

    def __init__(self, task, value, start_time, end_time, node):
        self.task = task
        self.value = value
        self.start_time = start_time
        self.end_time = end_time
        self.node = node


def _reference_open_record(task, time, dep_ids, retried):
    """The record the executor opened on admission, the old way."""
    return _ReferenceTaskRecord(
        task.name, None, None, None, task_id=task.task_id,
        category=task.category, op=task.op, queued=time,
        not_before=task.not_before, compute_s=0.0, dep_ids=dep_ids,
        retried=retried,
    )


def _reference_complete(task, record, value, time):
    """Completion, the old way: the record's end, then a result."""
    record.end = time
    return _ReferenceTaskResult(task, value, record.start, time, record.node)


# ----------------------------------------------------------------------
# The task
# ----------------------------------------------------------------------

UPSTREAM = [Task(f"up-{i}", op=PSEUDO_OVERHEAD) for i in range(3)]
SHARED = Upstream(UPSTREAM[:2])


def _cost(*_args, **_kwargs):
    return 1.0


#: Constructor keywords of the tasks the engines build, and the corners.
TASK_KWARGS = {
    "bare": {},
    "scidb": {"fn": _cost, "duration": 2.5, "node": "node-1",
              "category": "scidb-x"},
    "spark": {"fn": _cost, "duration": _cost, "on_oom": "spill",
              "node": "node-2"},
    "dask": {"fn": _cost, "args": [UPSTREAM[0], 3], "kwargs": {},
             "duration": _cost, "node": "node-1", "not_before": 0.5,
             "category": "dask-x"},
    "tensorflow": {"fn": _cost, "args": (UPSTREAM[0], UPSTREAM[1]),
                   "duration": _cost, "category": "tf"},
    "kwargs": {"fn": _cost, "kwargs": {"a": UPSTREAM[2], "b": 1},
               "deps": [UPSTREAM[0]]},
    "repeats": {"args": (UPSTREAM[0], UPSTREAM[0]),
                "deps": [UPSTREAM[1], UPSTREAM[0], UPSTREAM[1]]},
    "one dep": {"deps": [UPSTREAM[2]]},
    "shared": {"deps": SHARED},
    "shared and args": {"deps": SHARED, "args": (UPSTREAM[2], UPSTREAM[0])},
    "numbers": {"memory_bytes": 10.0, "output_bytes": True, "not_before": 3,
                "duration": 4, "on_oom": "wait"},
}

FIELDS = ("name", "fn", "duration", "node", "deps", "memory_bytes",
          "output_bytes", "on_oom", "not_before", "category", "op")


def _typed(value):
    return type(value), value


@pytest.mark.parametrize("case", sorted(TASK_KWARGS))
def test_a_task_holds_what_the_reference_task_held(case):
    kwargs = TASK_KWARGS[case]
    task = Task(case, op=PSEUDO_OVERHEAD, **kwargs)
    reference = _ReferenceTask(case, op=PSEUDO_OVERHEAD, **kwargs)
    for field in FIELDS:
        assert _typed(getattr(task, field)) == _typed(
            getattr(reference, field)), field
    assert task.args == reference.args and type(task.args) is tuple
    assert dict(task.kwargs) == reference.kwargs
    assert [id(dep) for dep in task.dependencies()] == [
        id(dep) for dep in reference.dependencies()]
    assert type(task.dependencies()) is type(reference.dependencies())


def test_a_task_copies_what_it_must_and_shares_what_it_may():
    args = (UPSTREAM[0], 1)
    given = {"a": 1}
    task = Task("t", args=args, kwargs=given, deps=SHARED, op=PSEUDO_OVERHEAD)
    assert task.args is args
    assert task.kwargs == given and task.kwargs is not given
    given["b"] = 2
    assert "b" not in task.kwargs
    assert Task("u", deps=SHARED, op=PSEUDO_OVERHEAD).dependencies() is SHARED
    # No kwargs: one shared, read-only empty mapping.
    bare = Task("v", op=PSEUDO_OVERHEAD)
    assert not bare.kwargs
    with pytest.raises(TypeError):
        bare.kwargs["x"] = 1


@pytest.mark.parametrize("kwargs", [
    {"op": None},
    {"op": 3},
    {"op": PSEUDO_OVERHEAD, "on_oom": "crash"},
    {"op": PSEUDO_OVERHEAD, "duration": -1.0},
    {"op": PSEUDO_OVERHEAD, "duration": inf},
    {"op": PSEUDO_OVERHEAD, "duration": float("nan")},
    {"op": PSEUDO_OVERHEAD, "not_before": -0.5},
    {"op": PSEUDO_OVERHEAD, "not_before": inf},
], ids=repr)
def test_a_task_rejects_what_the_reference_rejected_with_its_message(kwargs):
    with pytest.raises(Exception) as expected:
        _ReferenceTask("bad", **kwargs)
    with pytest.raises(expected.type) as got:
        Task("bad", **kwargs)
    assert str(got.value) == str(expected.value)


# ----------------------------------------------------------------------
# The record, which is the result
# ----------------------------------------------------------------------

REFERENCE_SLOTS = _ReferenceTaskRecord.__slots__


@pytest.mark.parametrize("retried", [False, True])
def test_an_opened_record_holds_what_the_keyword_constructor_made(retried):
    task = Task("t", args=(UPSTREAM[0],), node="node-3", not_before=2.0,
                category="c", op="neuro/denoise")
    dep_ids = tuple(dep.task_id for dep in task.dependencies())
    record = TaskRecord.opened(task, 1.5, dep_ids, retried)
    reference = _reference_open_record(task, 1.5, dep_ids, retried)
    for slot in REFERENCE_SLOTS:
        assert _typed(getattr(record, slot)) == _typed(
            getattr(reference, slot)), slot
    assert record.dep_ids is dep_ids
    assert record.value is None
    assert set(TaskRecord.__slots__) == set(REFERENCE_SLOTS) | {"value"}


def test_the_result_a_run_returns_is_the_filed_record():
    cluster = SimulatedCluster(ClusterSpec(n_nodes=2))
    first = Task("first", fn=lambda: 20, duration=1.0, node="node-1",
                 op=PSEUDO_OVERHEAD)
    second = Task("second", fn=lambda x: x + 1, args=(first,), duration=2.0,
                  node="node-1", op=PSEUDO_OVERHEAD)
    results = cluster.run([second])
    filed = cluster.obs.task_records
    assert [results[first.task_id], results[second.task_id]] == filed
    assert all(cluster.completed[r.task_id] is r for r in filed)
    record = results[second.task_id]
    # What the reference's result carried, read off the record.
    assert (record.value, record.node, record.start, record.end) == (
        21, "node-1", 1.0, 3.0)
    assert not hasattr(record, "task")
