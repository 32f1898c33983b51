"""Property tests for op-level attribution invariants.

Mirrors ``test_prop_critical_path``: for any run -- random DAGs, random
op stamping (plan ops or ``@overhead``) -- folding the critical path up
to logical ops must

- attribute every segment (no row carries ``op=None``);
- tile the makespan exactly (attributed seconds sum to the makespan);
- sum fractions to 1.

Work no plan op claims is stamped ``@overhead`` where it is made and
gaps fall to ``@idle``, which is what keeps the tiling total; the
properties hold whether a run was lowered by an engine or assembled by
hand.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.obs import compute_critical_path
from repro.obs.attribution import attribute_critical_path, op_totals
from repro.plan.ir import PSEUDO_IDLE, PSEUDO_OVERHEAD, PSEUDO_RECOVERY

durations = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=50.0,
              allow_nan=False, allow_infinity=False),
)

#: Ops a task may be stamped with: plan ops, or ``@overhead`` (the task
#: implements no logical op).
op_ids = st.sampled_from(
    ["plan/scan", "plan/map", "plan/shuffle", "plan/reduce", PSEUDO_OVERHEAD]
)


@st.composite
def stamped_dags(draw):
    """A cluster shape plus a random op-stamped task DAG."""
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
                op=draw(op_ids),
            )
        )
    return n_nodes, tasks


def assert_attribution_invariants(cluster):
    path = compute_critical_path(cluster)
    rows = attribute_critical_path(cluster, path=path)
    for row in rows:
        assert row["op"] is not None
        assert isinstance(row["op"], str)
        assert row["seconds"] >= -1e-9
    if path.makespan:
        assert sum(r["seconds"] for r in rows) == pytest.approx(
            path.makespan, abs=1e-6
        )
        assert sum(r["fraction"] for r in rows) == pytest.approx(
            1.0, abs=1e-6
        )
    return rows


@given(stamped_dags())
@settings(max_examples=60, deadline=None)
def test_random_stamped_dag_attribution_tiles(dag):
    n_nodes, tasks = dag
    cluster = SimulatedCluster(ClusterSpec(n_nodes=n_nodes))
    cluster.run(tasks)
    rows = assert_attribution_invariants(cluster)
    # Every attributed op is either one we stamped or a pseudo-op.
    stamped = {t.op for t in tasks}
    allowed = stamped | {PSEUDO_OVERHEAD, PSEUDO_IDLE, PSEUDO_RECOVERY}
    assert set(op_totals(rows)) <= allowed


@given(stamped_dags(), stamped_dags())
@settings(max_examples=25, deadline=None)
def test_attribution_tiles_across_multiple_runs(first, second):
    n_nodes, tasks = first
    _, more = second
    cluster = SimulatedCluster(ClusterSpec(n_nodes=n_nodes))
    cluster.run(tasks)
    cluster.charge_master(1.0, label="between", category="coordinator",
                          op=PSEUDO_OVERHEAD)
    cluster.run(more)
    assert_attribution_invariants(cluster)
