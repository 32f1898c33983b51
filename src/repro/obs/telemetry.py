"""Wall-clock self-telemetry for the harness process (Plane 2).

Every other module in ``repro.obs`` watches the *virtual* clock of a
simulated cluster.  This one watches the *real* process: where does the
wall time of ``python -m repro.harness`` actually go when trials fan
out across a pool?  It provides

- :class:`PhaseRecorder` -- nested wall-clock phases with self-time
  accounting (a phase's ``self_s`` excludes its children), so the
  recorded phases of a run tile its wall time by construction;
- a :class:`~repro.obs.metrics.MetricsRegistry` for pool-utilization
  gauges, payload-size histograms and cache counters;
- an optional per-worker cProfile hook, enabled by pointing the
  ``REPRO_PROFILE_DIR`` environment variable at a directory.

Telemetry follows the null-object pattern: module-level helpers proxy
to :data:`NULL_RECORDER` (all no-ops) unless a :func:`recording` scope
is active, so the instrumented hot paths in ``repro.harness`` cost
nothing when nobody is watching.  Telemetry never alters trial
payloads -- the serial/parallel/cache byte-identity invariant is
property-tested in ``tests/harness/test_parallel.py``.
"""

import os
import time
from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry

#: Environment variable: directory for per-worker cProfile dumps.
PROFILE_DIR_ENV = "REPRO_PROFILE_DIR"


class PhaseRecorder:
    """Nested wall-clock phases + metrics.

    ``clock`` is injectable for tests; it defaults to
    :func:`time.perf_counter`.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.metrics = MetricsRegistry()
        #: Completed phases, in completion order:
        #: ``{"name", "wall_s", "self_s", "depth"}``.
        self.phases = []
        self._stack = []

    @property
    def active(self):
        """True for real recorders; the null recorder reports False."""
        return True

    # -- phases --------------------------------------------------------

    @contextmanager
    def phase(self, name):
        """Measure the block as phase ``name``.

        Nested phases subtract their wall time from the parent's
        ``self_s``, so summing ``self_s`` over all phases of a
        top-level phase reproduces its wall time exactly.
        """
        start = self.clock()
        frame = [name, start, 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            wall = self.clock() - start
            if self._stack:
                self._stack[-1][2] += wall
            self_s = max(0.0, wall - frame[2])
            self.phases.append(
                {
                    "name": name,
                    "wall_s": wall,
                    "self_s": self_s,
                    "depth": len(self._stack),
                }
            )

    def phase_totals(self):
        """Aggregate completed phases by name.

        Returns ``{name: {"wall_s", "self_s", "count"}}``.
        """
        totals = {}
        for phase in self.phases:
            row = totals.setdefault(
                phase["name"], {"wall_s": 0.0, "self_s": 0.0, "count": 0}
            )
            row["wall_s"] += phase["wall_s"]
            row["self_s"] += phase["self_s"]
            row["count"] += 1
        return totals

    # -- metrics -------------------------------------------------------

    def count(self, name, amount=1):
        """Increment counter ``name``."""
        self.metrics.counter(name).inc(amount)

    def gauge(self, name, value):
        """Set gauge ``name``."""
        self.metrics.gauge(name).set(value)

    def observe(self, name, value):
        """Record one observation in histogram ``name``."""
        self.metrics.histogram(name).observe(value)


class _NullRecorder:
    """Inactive recorder: every operation is a no-op."""

    active = False
    phases = ()

    @contextmanager
    def phase(self, name):
        yield

    def phase_totals(self):
        return {}

    def count(self, name, amount=1):
        pass

    def gauge(self, name, value):
        pass

    def observe(self, name, value):
        pass


#: The shared inactive recorder returned outside :func:`recording`.
NULL_RECORDER = _NullRecorder()

_current = NULL_RECORDER


def recorder():
    """The active :class:`PhaseRecorder`, or :data:`NULL_RECORDER`."""
    return _current


def clear_recorder():
    """Reset to the null recorder.

    Forked pool workers call this from their initializer: the recorder
    they inherit belongs to the parent, and worker-side telemetry
    returns through the result sidecar instead.
    """
    global _current
    _current = NULL_RECORDER


@contextmanager
def recording(clock=time.perf_counter):
    """Activate a fresh :class:`PhaseRecorder` for the block."""
    global _current
    previous = _current
    _current = PhaseRecorder(clock=clock)
    try:
        yield _current
    finally:
        _current = previous


@contextmanager
def telemetry_phase(name):
    """Instrumentation shim: a phase on whatever recorder is active."""
    with recorder().phase(name):
        yield


def profile_dir():
    """The per-worker cProfile dump directory, or ``None``."""
    return os.environ.get(PROFILE_DIR_ENV) or None

