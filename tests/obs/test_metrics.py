"""Metrics primitives: counters, gauges, histograms, the registry."""

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


def test_counter_monotonic():
    c = Counter("n")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_high_water_ratchets():
    g = Gauge("level")
    g.set(10)
    g.set(3)
    assert g.value == 3
    assert g.high_water == 10
    g.add(12)
    assert g.value == 15
    assert g.high_water == 15


def test_histogram_statistics():
    h = Histogram("lat")
    for v in (1.0, 2.0, 3.0, 10.0):
        h.observe(v)
    assert h.count == 4
    assert h.total == 16.0
    assert h.mean == 4.0
    assert h.max == 10.0
    assert h.percentile(50) == 2.0
    assert h.percentile(100) == 10.0
    with pytest.raises(ValueError):
        h.percentile(101)
    # Nearest rank is ceil(p/100 * n): the median of five is the third,
    # and the p95 of eleven is the eleventh, not the tenth.
    odd = Histogram("odd")
    for v in (5.0, 1.0, 4.0, 2.0, 3.0):
        odd.observe(v)
    assert odd.percentile(50) == 3.0
    assert odd.percentile(0) == 1.0
    eleven = Histogram("eleven")
    for v in range(1, 12):
        eleven.observe(float(v))
    assert eleven.percentile(95) == 11.0
    assert eleven.percentile(90) == 10.0


def test_empty_histogram_is_safe():
    h = Histogram("empty")
    assert h.count == 0
    assert h.mean == 0.0
    assert h.max == 0.0
    assert h.percentile(95) == 0.0


def test_registry_create_on_first_use_and_snapshot():
    reg = MetricsRegistry()
    reg.counter("a").inc(2)
    assert reg.counter("a").value == 2  # same instance on re-lookup
    reg.gauge("b").set(7)
    reg.histogram("c").observe(1.5)
    snap = reg.snapshot()
    assert snap["a"] == 2
    assert snap["b"] == 7
    assert snap["b.high_water"] == 7
    assert snap["c.count"] == 1
    assert snap["c.mean"] == 1.5
