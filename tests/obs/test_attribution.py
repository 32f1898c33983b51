"""Logical-op attribution: the resolver's three outcomes + the
cross-engine golden table.

The golden test is the tentpole acceptance check: every engine's
lowered quick neuro run must attribute every critical-path segment to a
provenance id (a ``repro.plan`` op or a ``@pseudo`` op), the attributed
seconds must tile each engine's makespan exactly, and folding the five
runs into one :func:`op_table` yields the paper's Table 1 comparison
made quantitative -- per-op cost, comparable op-for-op across systems.
"""

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.data import generate_subject
from repro.obs import compute_critical_path
from repro.obs.attribution import (
    attribute_critical_path,
    format_attribution,
    format_op_table,
    op_table,
    op_totals,
    resolve_segment_op,
)
from repro.plan import neuro_plan
from repro.plan.ir import PSEUDO_IDLE, PSEUDO_OVERHEAD, PSEUDO_RECOVERY


# ----------------------------------------------------------------------
# The three outcomes (unit): @idle, recovery-wait, the stamp
# ----------------------------------------------------------------------

class _Span:
    def __init__(self, name, attrs=None, parent=None):
        self.name = name
        self.attrs = attrs or {}
        self.parent = parent


class _Record:
    def __init__(self, op, span=None, category=None):
        self.op = op
        self.span = span
        self.category = category


class _Segment:
    def __init__(self, kind="compute", category=None):
        self.kind = kind
        self.category = category


def test_idle_segment_resolves_to_idle():
    assert resolve_segment_op(_Segment("idle"), None) == PSEUDO_IDLE


def test_recovery_wait_beats_explicit_op():
    record = _Record(op="neuro/denoise")
    segment = _Segment(kind="recovery-wait")
    assert resolve_segment_op(segment, record) == PSEUDO_RECOVERY


def test_explicit_record_op_wins():
    record = _Record(op="neuro/denoise", span=_Span("s", {"plan_op": "x"}),
                     category="spark-recompute")
    assert resolve_segment_op(_Segment(), record) == "neuro/denoise"


def test_unattributed_cluster_tiles_with_pseudo_ops():
    """A cluster lowered by nothing still tiles: every segment lands on
    a pseudo-op, never ``None``."""
    cluster = SimulatedCluster(ClusterSpec(n_nodes=2))
    first = Task("plain-a", duration=2.0, op=PSEUDO_OVERHEAD)
    cluster.run([first, Task("plain-b", duration=1.0, deps=(first,),
                             op=PSEUDO_OVERHEAD)])
    rows = attribute_critical_path(cluster)
    assert rows
    assert all(row["op"] in (PSEUDO_OVERHEAD, PSEUDO_IDLE, PSEUDO_RECOVERY)
               for row in rows)
    path = compute_critical_path(cluster)
    assert sum(r["seconds"] for r in rows) == pytest.approx(
        path.makespan, abs=1e-6
    )


# ----------------------------------------------------------------------
# Cross-engine golden table (quick neuro plan)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def engine_attributions():
    """Per-engine attribution rows for one tiny neuro subject."""
    from repro.engines.dask import DaskClient
    from repro.engines.myria import MyriaConnection
    from repro.engines.scidb import SciDBConnection
    from repro.engines.spark import SparkContext
    from repro.engines.tensorflow import Session as TfSession
    from repro.pipelines.neuro.staging import stage_subjects
    from repro.plan import lower

    subject = generate_subject("s0", scale=12, n_volumes=12)
    results = {}

    def spark_cluster():
        return SimulatedCluster(ClusterSpec(n_nodes=4))

    def worker_cluster():
        return SimulatedCluster(
            ClusterSpec(n_nodes=4, workers_per_node=4, slots_per_worker=1)
        )

    cluster = spark_cluster()
    stage_subjects(cluster.object_store, [subject])
    lower(neuro_plan(), "spark", SparkContext(cluster)).run(
        [subject], input_partitions=16
    )
    results["spark"] = (cluster, attribute_critical_path(cluster))

    cluster = worker_cluster()
    stage_subjects(cluster.object_store, [subject])
    lower(neuro_plan(), "myria", MyriaConnection(cluster)).run(
        [subject], source="s3"
    )
    results["myria"] = (cluster, attribute_critical_path(cluster))

    cluster = spark_cluster()
    stage_subjects(cluster.object_store, [subject])
    lower(neuro_plan(), "dask", DaskClient(cluster)).run([subject])
    results["dask"] = (cluster, attribute_critical_path(cluster))

    cluster = worker_cluster()
    lower(neuro_plan(), "scidb", SciDBConnection(cluster)).run(subject)
    results["scidb"] = (cluster, attribute_critical_path(cluster))

    cluster = spark_cluster()
    lower(neuro_plan(), "tensorflow", TfSession(cluster)).run(subject)
    results["tensorflow"] = (cluster, attribute_critical_path(cluster))

    return results


def test_every_segment_carries_a_provenance_id(engine_attributions):
    """Acceptance: no lowered quick run leaves a segment unattributed."""
    known = set(neuro_plan().provenance_ids())
    known |= {PSEUDO_OVERHEAD, PSEUDO_RECOVERY, PSEUDO_IDLE}
    for engine, (_cluster, rows) in engine_attributions.items():
        assert rows, f"{engine}: no attribution rows"
        for row in rows:
            assert row["op"] is not None, f"{engine}: unattributed segment"
            assert row["op"] in known, (
                f"{engine}: unknown provenance id {row['op']!r}"
            )


def test_attribution_tiles_each_engines_makespan(engine_attributions):
    """Acceptance: attributed op costs tile the makespan exactly."""
    for engine, (cluster, rows) in engine_attributions.items():
        path = compute_critical_path(cluster)
        assert sum(r["seconds"] for r in rows) == pytest.approx(
            path.makespan, abs=1e-6
        ), f"{engine}: seconds do not tile the makespan"
        assert sum(r["fraction"] for r in rows) == pytest.approx(
            1.0, abs=1e-6
        ), f"{engine}: fractions do not sum to 1"


#: Which logical ops each engine's lowering must surface on the
#: critical path of the tiny run (golden; indicative, not exhaustive).
EXPECTED_OPS = {
    "spark": {"neuro/volumes", "neuro/repart", "neuro/fitmodel"},
    "myria": {"neuro/denoise", "neuro/fitmodel"},
    "dask": {"neuro/denoise", "neuro/fitmodel"},
    "scidb": {"neuro/volumes", "neuro/denoise"},
    "tensorflow": {"neuro/b0", "neuro/denoise"},
}


def test_golden_ops_per_engine(engine_attributions):
    for engine, expected in EXPECTED_OPS.items():
        ops = set(op_totals(engine_attributions[engine][1]))
        missing = expected - ops
        assert not missing, f"{engine}: expected ops missing {missing}"


def test_cross_engine_op_table_golden(engine_attributions):
    plan = neuro_plan()
    columns = {
        engine: rows for engine, (_c, rows) in engine_attributions.items()
    }
    table = op_table(columns, plan=plan)
    assert table["columns"] == list(columns)
    # Plan ops come in plan order; pseudo-ops trail.
    plan_order = [op for op in plan.provenance_ids() if op in table["ops"]]
    assert table["ops"][: len(plan_order)] == plan_order
    assert all(op.startswith("@") for op in table["ops"][len(plan_order):])
    # Each column sums back to that engine's makespan.
    for engine, (cluster, _rows) in engine_attributions.items():
        total = sum(table["cells"][op][engine] for op in table["ops"])
        makespan = compute_critical_path(cluster).makespan
        assert total == pytest.approx(makespan, abs=1e-6)
    # The Table-1 NA cells stay empty: no fitmodel cost outside the
    # engines that can express it.
    fit = "neuro/fitmodel"
    if fit in table["cells"]:
        assert table["cells"][fit]["scidb"] == 0.0
        assert table["cells"][fit]["tensorflow"] == 0.0
        assert table["cells"][fit]["spark"] > 0.0
    rendered = format_op_table(table)
    assert "op" in rendered.splitlines()[0]
    for engine in columns:
        assert engine in rendered.splitlines()[0]


def test_format_attribution_renders(engine_attributions):
    _cluster, rows = engine_attributions["spark"]
    text = format_attribution(rows, top=5)
    assert "Per-op attribution" in text
    assert "%" in text
