"""Span store: nesting, task tagging, and engine integration."""

import pytest

from repro.cluster import ClusterSpec, SimulatedCluster, Task
from repro.engines.spark import SparkContext
from repro.obs.spans import PSEUDO_OVERHEAD, SpanStore


@pytest.fixture
def cluster():
    return SimulatedCluster(ClusterSpec(n_nodes=2))


def test_open_close_records_extent(cluster):
    with cluster.obs.span("outer") as span:
        cluster.run([Task("t", duration=2.0, op=PSEUDO_OVERHEAD)])
    assert span.start == 0.0
    assert span.end == 2.0
    assert span.duration == 2.0
    assert span.parent is None
    assert span.parent_id == -1
    assert span.depth == 0


def test_nested_spans_link_parents(cluster):
    with cluster.obs.span("outer") as outer:
        with cluster.obs.span("inner") as inner:
            pass
    assert inner.parent is outer
    assert inner.parent_id == outer.span_id
    assert inner.depth == 1
    assert len(cluster.obs.spans) == 2


def test_task_records_tagged_with_innermost_span(cluster):
    with cluster.obs.span("stage"):
        cluster.run([Task("work", duration=1.0, op=PSEUDO_OVERHEAD)])
    cluster.run([Task("untagged", duration=1.0, op=PSEUDO_OVERHEAD)])
    tagged, untagged = cluster.obs.task_records
    assert tagged.span.name == "stage"
    assert untagged.span is None


def test_span_attrs_kept(cluster):
    with cluster.obs.span("q", category="myria", mode="pipelined") as span:
        pass
    assert span.category == "myria"
    assert span.attrs == {"mode": "pipelined"}


def test_out_of_order_close_rejected():
    store = SpanStore()
    a = store.open("a", 0.0)
    store.open("b", 0.0)
    with pytest.raises(RuntimeError, match="out of order"):
        store.close(a, 1.0)


def test_reset_clears_spans_and_records(cluster):
    with cluster.obs.span("s"):
        cluster.run([Task("t", duration=1.0, op=PSEUDO_OVERHEAD)])
    cluster.reset_clock()
    assert len(cluster.obs.spans) == 0
    assert cluster.obs.task_records == []


def test_spark_stages_open_spans(cluster):
    sc = SparkContext(cluster)
    rdd = sc.parallelize(range(20), numSlices=4)
    rdd.map(lambda v: v + 1).collect()
    names = [s.name for s in cluster.obs.spans.spans]
    assert names and all(n.startswith("spark-stage") for n in names)
    assert all(s.end is not None for s in cluster.obs.spans.spans)
    # The stage's tasks are tagged with its span.
    spanned = [r for r in cluster.obs.task_records if r.span is not None]
    assert spanned
