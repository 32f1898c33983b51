"""Metrics primitives: counters, gauges and histograms.

:class:`MetricsRegistry` holds counters, gauges (with high-water
marks) and histograms, created on first use.  The harness's wall-clock
telemetry (:mod:`repro.obs.telemetry`) registers into one; the
straggler table of :mod:`repro.obs.breakdown` takes its mean, p95 and
max from :class:`Histogram`.
"""

import math


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {amount}")
        self.value += amount

    def __repr__(self):
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A settable level that remembers its high-water mark."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name):
        self.name = name
        self.value = 0
        self.high_water = 0

    def set(self, value):
        """Set the level; the high-water mark only ratchets up."""
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def add(self, delta):
        """Adjust the level by ``delta``."""
        self.set(self.value + delta)

    def __repr__(self):
        return f"Gauge({self.name}={self.value}, hwm={self.high_water})"


class Histogram:
    """A bag of observations with summary statistics."""

    __slots__ = ("name", "values")

    def __init__(self, name):
        self.name = name
        self.values = []

    def observe(self, value):
        """Record one observation."""
        self.values.append(value)

    @property
    def count(self):
        """Number of observations."""
        return len(self.values)

    @property
    def total(self):
        """Sum of observations."""
        return sum(self.values)

    @property
    def mean(self):
        """Mean observation (0.0 when empty)."""
        return self.total / len(self.values) if self.values else 0.0

    @property
    def max(self):
        """Largest observation (0.0 when empty)."""
        return max(self.values) if self.values else 0.0

    def percentile(self, p):
        """The ``p``-th percentile (nearest-rank; 0.0 when empty)."""
        if not self.values:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self.values)
        return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]

    def __repr__(self):
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """Named metrics, created on first use."""

    def __init__(self):
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    def counter(self, name):
        """The counter called ``name`` (created empty if new)."""
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name):
        """The gauge called ``name`` (created empty if new)."""
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def histogram(self, name):
        """The histogram called ``name`` (created empty if new)."""
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]

    def snapshot(self):
        """Flat ``{name: value}`` view of everything registered."""
        out = {}
        for name, counter in sorted(self.counters.items()):
            out[name] = counter.value
        for name, gauge in sorted(self.gauges.items()):
            out[name] = gauge.value
            out[f"{name}.high_water"] = gauge.high_water
        for name, histogram in sorted(self.histograms.items()):
            out[f"{name}.count"] = histogram.count
            out[f"{name}.mean"] = histogram.mean
            out[f"{name}.max"] = histogram.max
        return out
