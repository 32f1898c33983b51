"""In-memory spans recorded from the benchmark's own files.

A span is ``(name, start, end, parent, trial)``.  The benchmark opens
them around its calls into each layer of ``repro`` -- inside the
benchmark-owned trial bodies and after each trial -- so nothing under
``src/`` has to know it is being traced.  Spans stay in memory until the
pass ends; :meth:`SpanRecorder.chrome_trace` turns them into a
Chrome-trace document.

Trial bodies are called by the harness with JSON arguments only, so they
cannot be handed a recorder: :func:`span` writes to whichever recorder a
:func:`recording` scope installed, and is a no-op outside one (the timed
rounds).
"""

import time
from contextlib import contextmanager


class SpanRecorder:
    """Nested spans on one thread, in completion order."""

    def __init__(self):
        #: ``{"name", "start", "end", "parent", "trial"}``; ``parent``
        #: indexes this list (``None`` at the top level).
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, trial=None):
        """Record the block as span ``name``; the trial id is inherited
        from the enclosing span when not given."""
        parent = self._open[-1] if self._open else None
        if trial is None and parent is not None:
            trial = self.spans[parent]["trial"]
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent, "trial": trial})
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end"] = time.perf_counter()

    def totals(self):
        """``{name: seconds}`` summed over every closed span."""
        totals = {}
        for s in self.spans:
            if s["end"] is not None:
                totals[s["name"]] = (
                    totals.get(s["name"], 0.0) + s["end"] - s["start"]
                )
        return totals

    def chrome_trace(self, process_name):
        """The spans as Chrome ``trace_event`` complete events."""
        if not self.spans:
            return []
        origin = self.spans[0]["start"]
        return [
            {
                "name": s["name"], "ph": "X", "pid": process_name, "tid": 0,
                "ts": round((s["start"] - origin) * 1e6, 3),
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "args": {"trial": s["trial"], "parent": s["parent"]},
            }
            for s in self.spans if s["end"] is not None
        ]


_current = None


@contextmanager
def recording(recorder):
    """Make ``recorder`` receive every :func:`span` opened inside."""
    global _current
    previous, _current = _current, recorder
    try:
        yield recorder
    finally:
        _current = previous


@contextmanager
def span(name, trial=None):
    """A span on the active recorder; free when none is active."""
    if _current is None:
        yield
    else:
        with _current.span(name, trial=trial):
            yield
