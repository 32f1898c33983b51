"""Task-path ratio: one task's objects against the three it replaced.

The step figures run tens of thousands of small tasks, so what each
task costs to build and to complete is host time the simulator pays
per task.  This times the objects alone, for a wave of tasks shaped
like the ones the engines build (a Dask task with a task argument, a
Spark stage task, a SciDB or Myria worker task, a TensorFlow op with
two inputs): make each task, open its record on admission, stamp the
attempt's node and start, and complete it.  The reference is the
three-object path kept in ``tests/cluster/test_task_path.py``: the
``Task`` that checked its op through ``check_op`` and copied its
arguments, the keyword-built record that checked the op again and
copied ``dep_ids``, and a ``TaskResult`` per completion.  Both sides
are timed in this process, alternately, and the fastest run of each is
kept, so a slow phase of the host slows both sides of the ratio.

On a 2-core Xeon the task path read 0.46-0.48 of its reference.  With
the reference path on both sides it reads 1.00, so the bound of 0.75
fails it.
"""

import sys
import time
from pathlib import Path

from repro.cluster import Task
from repro.obs.spans import PSEUDO_OVERHEAD, TaskRecord

# The reference lives with the unit tests, which import one another as
# ``tests....``: find the repository root from this file, so the ratio
# runs from any directory.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.cluster.test_task_path import (  # noqa: E402
    _reference_complete,
    _reference_open_record,
    _ReferenceTask,
)

BOUND = 0.75
WAVES = 250
UPSTREAM = [Task(f"map-{i}", op=PSEUDO_OVERHEAD) for i in range(2)]
DEP_IDS = tuple(task.task_id for task in UPSTREAM)


def _cost(*_args):
    return 1.0


def _wave(make_task):
    """Four tasks, one of each engine's shape."""
    return (
        make_task("dask-fit-1", fn=_cost, args=[UPSTREAM[0], 3], kwargs={},
                  duration=_cost, node="node-1", not_before=0.5,
                  category="dask-fit", op="neuro/fit"),
        make_task("spark-stage3-7", fn=_cost, duration=_cost,
                  on_oom="spill", node="node-2", op="neuro/denoise"),
        make_task("scidb-filter-4", fn=_cost, duration=2.5, node="node-3",
                  category="scidb-filter", op="neuro/filter"),
        make_task("tf-mean", fn=_cost, args=(UPSTREAM[0], UPSTREAM[1]),
                  duration=_cost, node="node-0", category="tf-mean",
                  op="neuro/mean"),
    )


def task_path():
    for _ in range(WAVES):
        for task in _wave(Task):
            dep_ids = DEP_IDS if task.dependencies() else ()
            record = TaskRecord.opened(task, 0.0, dep_ids, False)
            record.node = "node-1"
            record.start = 0.5
            record.end = 1.5
            record.value = task


def reference_path():
    for _ in range(WAVES):
        for task in _wave(_ReferenceTask):
            dep_ids = DEP_IDS if task.dependencies() else ()
            record = _reference_open_record(task, 0.0, dep_ids, False)
            record.node = "node-1"
            record.start = 0.5
            _reference_complete(task, record, task, 1.5)


def _best_of(rounds, *fns):
    best = [float("inf")] * len(fns)
    for _ in range(rounds):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_a_task_costs_less_than_its_three_objects_did():
    new_s, reference_s = _best_of(30, task_path, reference_path)
    tasks = 4 * WAVES
    print(f"{tasks} tasks: {new_s / tasks * 1e6:.2f} us / "
          f"{reference_s / tasks * 1e6:.2f} us each "
          f"= {new_s / reference_s:.2f} (bound {BOUND})")
    assert new_s <= BOUND * reference_s
