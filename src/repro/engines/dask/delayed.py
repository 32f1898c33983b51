"""The ``delayed`` graph-construction API (paper Figure 8).

``client.delayed(fn)(args...)`` returns a :class:`Delayed` node; nodes
passed as arguments become graph edges.  Nothing executes until
``result()`` or ``client.compute()`` -- the explicit barriers the
paper's Section 4.4 discusses ("we had to reason about when to insert
barriers to evaluate the constructed graphs").
"""

from repro.engines.base import as_costed


class Delayed:
    """One node of a Dask compute graph."""

    __slots__ = ("client", "fn", "args", "kwargs", "key", "op", "workers")

    def __init__(self, client, fn, args, kwargs, op, workers=None):
        self.client = client
        self.fn = fn
        self.op = op
        self.args = tuple(args)
        self.kwargs = dict(kwargs or {})
        self.key = f"{fn.name}-{next(client.key_counter)}"
        self.workers = workers

    def dependencies(self):
        """Upstream tasks/nodes this one waits for."""
        deps = []
        for arg in self.args:
            if isinstance(arg, Delayed):
                deps.append(arg)
        for arg in self.kwargs.values():
            if isinstance(arg, Delayed):
                deps.append(arg)
        return deps

    def __repr__(self):
        return f"Delayed({self.key})"


class DelayedFactory:
    """What ``client.delayed(fn, cost=...)`` returns.

    ``op`` is the provenance id of the logical plan op the function
    implements (or a pseudo-op); every node the factory makes carries
    it, and the scheduler builds the node's task with it.
    """

    __slots__ = ("client", "fn", "op", "workers")

    def __init__(self, client, fn, op, cost=None, workers=None):
        self.client = client
        self.fn = as_costed(fn) if cost is None else _with_cost(fn, cost)
        self.op = op
        self.workers = workers

    def __call__(self, *args, **kwargs):
        return Delayed(
            self.client, self.fn, args, kwargs, self.op, workers=self.workers
        )


def _with_cost(fn, cost):
    from repro.engines.base import CostedFunction

    if isinstance(fn, CostedFunction):
        return CostedFunction(fn.fn, cost_fn=cost, name=fn.name)
    return CostedFunction(fn, cost_fn=cost)
