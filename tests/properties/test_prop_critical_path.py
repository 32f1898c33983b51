"""Property tests for critical-path invariants.

Three invariants hold for every run by construction:

- segments tile ``[epoch, end]`` exactly (no gaps, no overlap);
- the path length (work segments only) never exceeds the makespan,
  and equals it for a pure chain DAG;
- blame fractions sum to 1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.obs import compute_critical_path, critical_path
from repro.obs.spans import TaskRecord

# Zero or >= 1ms: simulated work is second-scale; subnormal durations
# would demand relative epsilons the walk does not need in practice.
durations = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=50.0,
              allow_nan=False, allow_infinity=False),
)


@st.composite
def random_dags(draw):
    """A cluster plus a random task DAG (deps only point backward)."""
    n_nodes = draw(st.integers(min_value=1, max_value=4))
    n_tasks = draw(st.integers(min_value=1, max_value=16))
    tasks = []
    for index in range(n_tasks):
        n_deps = draw(st.integers(min_value=0, max_value=min(index, 3)))
        dep_indexes = draw(
            st.sets(st.integers(min_value=0, max_value=index - 1),
                    min_size=n_deps, max_size=n_deps)
        ) if index else set()
        not_before = draw(
            st.one_of(st.just(0.0),
                      st.floats(min_value=0.0, max_value=10.0))
        )
        tasks.append(
            Task(
                f"task-{index}",
                duration=draw(durations),
                deps=tuple(tasks[i] for i in sorted(dep_indexes)),
                not_before=not_before,
            )
        )
    return n_nodes, tasks


def assert_invariants(path):
    cursor = path.epoch
    for segment in path.segments:
        assert segment.start == pytest.approx(cursor, abs=1e-6)
        assert segment.end >= segment.start - 1e-9
        cursor = segment.end
    assert cursor == pytest.approx(path.end, abs=1e-6)
    assert path.path_length <= path.makespan + 1e-6
    if path.makespan:
        assert sum(r["fraction"] for r in path.blame()) == pytest.approx(
            1.0, abs=1e-6
        )


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_random_dag_invariants(dag):
    n_nodes, tasks = dag
    cluster = SimulatedCluster(ClusterSpec(n_nodes=n_nodes))
    cluster.run(tasks)
    assert_invariants(compute_critical_path(cluster))


@given(st.lists(durations, min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_pure_chain_path_equals_makespan(chain_durations):
    cluster = SimulatedCluster(ClusterSpec(n_nodes=2))
    tasks = []
    for index, duration in enumerate(chain_durations):
        tasks.append(
            Task(f"link-{index}", duration=duration,
                 deps=(tasks[-1],) if tasks else ())
        )
    cluster.run(tasks)
    path = compute_critical_path(cluster)
    assert_invariants(path)
    assert path.path_length == pytest.approx(path.makespan, abs=1e-6)


@given(random_dags(), random_dags())
@settings(max_examples=25, deadline=None)
def test_multiple_runs_still_tile(first, second):
    """Back-to-back cluster.run calls stay covered by one path."""
    n_nodes, tasks = first
    _, more = second
    cluster = SimulatedCluster(ClusterSpec(n_nodes=n_nodes))
    cluster.run(tasks)
    cluster.charge_master(1.0, label="between", category="coordinator")
    cluster.run(more)
    assert_invariants(compute_critical_path(cluster))


# ----------------------------------------------------------------------
# The handover index against the scan it replaced
# ----------------------------------------------------------------------

def _reference_handover(records, frontier):
    """The handover as the walk used to compute it: rebuild the
    candidates from all records, take a keyed ``max`` (the first in
    ``records`` order wins a full tie)."""
    candidates = [x for x in records if x.start < frontier - 1e-9]
    if not candidates:
        return None
    return max(
        candidates, key=lambda x: (min(x.end, frontier), x.start, x.name)
    )


class _ReferenceHandover:
    """Drop-in for ``critical_path._Handover`` built on the old scan."""

    def __init__(self, records):
        self.records = records

    def at(self, frontier):
        return _reference_handover(self.records, frontier)


# A coarse grid of times and two names, so that equal starts, equal
# ends, equal (start, name) pairs, gaps and exact abutment all occur.
grid_times = st.integers(min_value=0, max_value=12).map(lambda i: i * 0.5)


@st.composite
def record_sets(draw):
    """Records with no binding dependencies: coordinator charges (no
    ``task_id``) and dependency-free tasks, duplicates included."""
    records = []
    for index in range(draw(st.integers(min_value=1, max_value=14))):
        start = draw(grid_times)
        end = start + draw(grid_times)
        records.append(TaskRecord(
            draw(st.sampled_from(("charge", "step"))),
            "node-0", start, end,
            task_id=draw(st.one_of(st.none(), st.just(index))),
        ))
    return records


def _segment_tuples(path):
    return [
        (s.kind, s.category, s.name, s.node, s.start, s.end,
         path.record_for(s))
        for s in path.segments
    ]


@given(record_sets(), st.lists(grid_times, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_handover_index_picks_the_record_the_scan_picked(records, frontiers):
    index = critical_path._Handover(records)
    for frontier in frontiers:
        for nudge in (0.0, 1e-10, -1e-10, 0.25):
            at = frontier + nudge
            assert index.at(at) is _reference_handover(records, at)


@given(record_sets())
@settings(max_examples=200, deadline=None)
def test_path_segments_equal_those_of_the_scanning_walk(records):
    """Same segments, cut from the very same record objects."""
    path = compute_critical_path(records)
    assert_invariants(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(critical_path, "_Handover", _ReferenceHandover)
        reference = compute_critical_path(records)
    assert _segment_tuples(path) == _segment_tuples(reference)


def test_handover_full_tie_goes_to_the_first_record():
    """Two records equal in (start, end, name): ``max`` kept the first."""
    twins = [TaskRecord("charge", "node-0", 0.0, 2.0),
             TaskRecord("charge", "node-1", 0.0, 2.0)]
    tail = TaskRecord("tail", "node-0", 2.0, 3.0)
    # Both twins reach the frontier (end >= 2.0): tie on every key field.
    for records in (twins + [tail], [tail] + twins):
        assert critical_path._Handover(records).at(2.0) is twins[0]
        path = compute_critical_path(records)
        assert [s.node for s in path.segments] == ["node-0", "node-0"]
    # Neither reaches it (a gap before the frontier): same rule.
    assert critical_path._Handover(twins).at(5.0) is twins[0]
    # A twin listed first but ending short of the frontier loses to the
    # one that reaches it.
    short = TaskRecord("charge", "node-2", 0.0, 1.0)
    assert critical_path._Handover([short] + twins).at(2.0) is twins[0]
    assert critical_path._Handover(twins + [short]).at(1.5) is twins[0]
