"""Virtual clock for the discrete-event simulation."""


class VirtualClock:
    """Monotonic simulated clock measured in seconds.

    The clock only moves forward.  All engine-visible timings in the
    reproduction are simulated seconds on this clock, never wall-clock
    time, which makes every benchmark deterministic and independent of
    the host machine.  ``now``, the current simulated time in seconds,
    is a plain attribute, so the event loop and the memory trackers
    read it without a call; only the methods below move it.
    """

    def __init__(self, start=0.0):
        if start < 0:
            raise ValueError(f"clock cannot start at negative time {start}")
        self.now = float(start)

    def advance_to(self, timestamp):
        """Move the clock forward to ``timestamp``.

        Raises :class:`ValueError` on attempts to move backwards, which
        would indicate a scheduling bug in an engine, and on NaN.
        """
        if not timestamp >= self.now:
            raise ValueError(
                f"cannot move clock backwards from {self.now} to {timestamp}"
            )
        self.now = float(timestamp)

    def advance_by(self, delta):
        """Move the clock forward by ``delta`` seconds (must be >= 0)."""
        if not delta >= 0:
            raise ValueError(f"cannot advance clock by negative delta {delta}")
        self.now += float(delta)

    def __repr__(self):
        return f"VirtualClock(now={self.now:.6f})"
