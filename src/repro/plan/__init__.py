"""repro.plan — logical dataflow IR with per-engine lowering backends.

Both scientific pipelines are defined exactly once here
(:func:`neuro_plan`, :func:`astro_plan`); each engine translates a plan
into its native execution model through the ``Lowered<Plan>`` class of
its ``repro.engines.<engine>.lowering.<plan name>`` module.
:func:`lower` imports that one module, so harness code never imports a
lowering module directly and a process compiles only the lowerings it
runs.
"""

from importlib import import_module

from repro.plan.astro import astro_plan
from repro.plan.ir import (
    PSEUDO_IDLE,
    PSEUDO_OPS,
    PSEUDO_OVERHEAD,
    PSEUDO_RECOVERY,
    LogicalPlan,
    Op,
    PlanError,
    provenance_id,
)
from repro.plan.neuro import neuro_plan
from repro.plan.opt import OptimizationResult, RuleFiring, optimize_for
from repro.plan.route import (
    RoutingDecision,
    choose_engine,
    estimate_plan_cost,
    supports,
)

# Engine name -> package holding one lowering module per plan name.
ENGINE_LOWERINGS = {
    "spark": "repro.engines.spark.lowering",
    "dask": "repro.engines.dask.lowering",
    "myria": "repro.engines.myria.lowering",
    "scidb": "repro.engines.scidb.lowering",
    "tensorflow": "repro.engines.tensorflow.lowering",
}


def lower(plan, engine, ctx):
    """Lower ``plan`` for ``engine`` against execution context ``ctx``.

    ``ctx`` is the engine's native entry point (SparkContext, Dask
    client, Myria connection, SciDB handle, TF session).  Returns the
    engine's lowered-pipeline object; raises :class:`NotImplementedError`
    for plan/engine combinations the paper marks NA (with the reason
    :func:`supports` gives) and for plans the engine has no module for.
    """
    try:
        package = ENGINE_LOWERINGS[engine]
    except KeyError:
        raise PlanError(f"no lowering backend for engine {engine!r}")
    lowered = None
    if plan.name.isidentifier():
        module_name = f"{package}.{plan.name}"
        try:
            module = import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name != module_name:
                raise
        else:
            lowered = getattr(module, f"Lowered{plan.name.capitalize()}", None)
    if lowered is not None:
        return lowered(plan, ctx)
    level, reason = supports(plan.name, engine)
    if level == "na":
        raise NotImplementedError(
            f"{engine} cannot lower the {plan.name!r} plan: {reason}")
    raise NotImplementedError(f"{engine} lowering: unknown plan {plan.name!r}")


__all__ = [
    "LogicalPlan",
    "Op",
    "PlanError",
    "PSEUDO_IDLE",
    "PSEUDO_OPS",
    "PSEUDO_OVERHEAD",
    "PSEUDO_RECOVERY",
    "ENGINE_LOWERINGS",
    "OptimizationResult",
    "RoutingDecision",
    "RuleFiring",
    "astro_plan",
    "choose_engine",
    "estimate_plan_cost",
    "lower",
    "neuro_plan",
    "optimize_for",
    "provenance_id",
    "supports",
]
