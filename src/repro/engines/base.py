"""Shared engine abstractions.

The engines execute *real* user functions over real (scaled-down) data
while charging *nominal* simulated time.  :class:`CostedFunction` binds
those two facets together: the wrapped callable computes actual results
and its ``cost_fn`` prices the work from nominal data sizes, playing the
role of the paper's Python UDFs whose runtime the systems cannot see
inside.
"""

import numpy as np

from repro.formats.sizing import SizedArray
from repro.obs.spans import PSEUDO_OVERHEAD

#: Nominal size assumed for small opaque records (ids, small tuples).
SMALL_RECORD_BYTES = 64


def nominal_bytes_of(item):
    """Nominal byte size of a data item flowing through an engine.

    :class:`SizedArray` reports its paper-scale size; tuples/lists/dicts
    sum their members; ndarrays report their real size (they only occur
    for genuinely small payloads like masks at test scale); everything
    else counts as a small record.

    The common record types are matched by exact type first; every
    other item (subclasses included) takes the general chain below.
    """
    kind = type(item)
    if kind is SizedArray:
        return item.nominal_bytes
    if kind is tuple or kind is list:
        return sum(map(nominal_bytes_of, item))
    if kind is int or kind is float or item is None:
        return SMALL_RECORD_BYTES
    if kind is str:
        return len(item)
    if isinstance(item, SizedArray):
        return item.nominal_bytes
    nominal = getattr(item, "nominal_bytes", None)
    if nominal is not None:
        return int(nominal)
    if isinstance(item, np.ndarray):
        return item.nbytes
    if isinstance(item, (tuple, list)):
        return sum(nominal_bytes_of(x) for x in item)
    if isinstance(item, dict):
        return sum(nominal_bytes_of(x) for x in item.values())
    if isinstance(item, (bytes, bytearray, str)):
        return len(item)
    return SMALL_RECORD_BYTES


class CostedFunction:
    """A user function paired with a simulated cost.

    ``cost_fn(*args)`` returns simulated seconds for one invocation at
    nominal scale; when omitted the call is priced as free (appropriate
    for metadata-only lambdas like key extractors).  ``op`` is the
    provenance id Spark's lowering walker stamps on a function it
    lowers (``"neuro/denoise"``); the stage scheduler reads it to name
    the op of the stage's tasks, and it stays ``None`` on functions no
    walker lowered.
    """

    __slots__ = ("fn", "cost_fn", "name", "op")

    def __init__(self, fn, cost_fn=None, name=None):
        if not callable(fn):
            raise TypeError(f"fn must be callable, got {type(fn)!r}")
        if cost_fn is not None and not callable(cost_fn):
            raise TypeError(f"cost_fn must be callable, got {type(cost_fn)!r}")
        self.fn = fn
        self.cost_fn = cost_fn
        self.name = name or getattr(fn, "__name__", "udf")
        self.op = None

    def __call__(self, *args, **kwargs):
        return self.fn(*args, **kwargs)

    def cost(self, *args, **kwargs):
        """Simulated seconds charged for one invocation."""
        if self.cost_fn is None:
            return 0.0
        return float(self.cost_fn(*args, **kwargs))

    def __repr__(self):
        return f"CostedFunction({self.name!r})"


def udf(fn=None, cost=None, name=None):
    """Convenience wrapper: ``udf(fn, cost=...)`` or decorator form."""
    if fn is None:
        return lambda f: CostedFunction(f, cost_fn=cost, name=name)
    if isinstance(fn, CostedFunction):
        return fn
    return CostedFunction(fn, cost_fn=cost, name=name)


def as_costed(fn):
    """Coerce a plain callable into a zero-cost :class:`CostedFunction`."""
    if isinstance(fn, CostedFunction):
        return fn
    return CostedFunction(fn)


class LoweredPlan:
    """What ``lower(plan, ctx)`` returns: ``run()`` plus the step protocol.

    Figures 11 and 12 time one logical op at a time.  ``prepare`` --
    untimed -- materializes everything the op reads (warm deployment,
    ingested or persisted inputs, side inputs, registered UDFs);
    ``run_op`` then executes exactly that op and materializes its
    output.  A lowering implements the pair per op as ``_prepare_<op>``
    and ``_step_<op>`` methods over the kernels its ``run()`` uses; an
    op without them is one of the engine's Table 1 NA cells.
    """

    def __init__(self, plan, ctx):
        self.plan = plan
        self.ctx = ctx

    def prepare(self, op_id, data, **tuning):
        """Materialize, untimed, what ``op_id`` reads from ``data``."""
        self._step_method("_prepare_", op_id)(data, **tuning)

    def run_op(self, op_id, **tuning):
        """Execute ``op_id`` over what :meth:`prepare` left behind.

        The step names its op at every call that makes a task or a
        charge (shuffles, broadcasts, collects the op causes included),
        so the measured op is attributed by construction.
        """
        self._step_method("_step_", op_id)(**tuning)

    def _step_method(self, prefix, op_id):
        method = getattr(self, prefix + op_id, None)
        if method is None:
            raise NotImplementedError(
                f"the {self.ctx.name} lowering of {self.plan.name!r} has no"
                f" {op_id!r} step"
            )
        return method


class Engine:
    """Base class for the five mini systems.

    Each subclass defines ``startup_cost()``: its one-time job or
    session startup, in simulated seconds.
    """

    #: Engine display name, e.g. ``"Spark"``; subclasses override.
    name = "engine"

    def __init__(self, cluster):
        self.cluster = cluster
        self._started = False

    @property
    def cost_model(self):
        """Cost model."""
        return self.cluster.cost_model

    def ensure_started(self):
        """Charge the startup cost exactly once per engine instance.

        Start-up implements no plan op, so it is always ``@overhead``,
        whichever op first touches the engine.
        """
        if not self._started:
            self._started = True
            cost = self.startup_cost()
            if cost > 0:
                self.cluster.charge_master(
                    cost, label=f"{self.name} startup",
                    category=f"{self.name.lower()}-startup",
                    op=PSEUDO_OVERHEAD,
                )

    def __repr__(self):
        return f"{type(self).__name__}(nodes={self.cluster.spec.n_nodes})"
