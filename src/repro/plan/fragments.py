"""Plan fragments: the micro-benchmark slices of the two pipelines.

Figures 11 and 12 measure individual steps (ingest, filter, mean,
denoise, coadd) rather than whole pipelines.  Instead of hand-writing
each step a second time, a *fragment* is carved out of the full logical
plan: the ancestor closure of one op, keeping the parent plan's name and
params.  Keeping the name is deliberate — provenance ids
(``"neuro/b0"``) and emitted MyriaL text must be identical whether an
op runs inside the full pipeline or inside its micro-benchmark slice,
so the fig11/fig12 baselines stay byte-stable.

Fragments are ordinary :class:`~repro.plan.ir.LogicalPlan` objects: they
validate, lower, route and optimize like any plan.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace

from repro.plan.astro import astro_plan
from repro.plan.ir import PlanError
from repro.plan.ir import materialize as _mk_materialize
from repro.plan.neuro import neuro_plan


def fragment(plan, last):
    """The ancestor closure of ``last`` as a standalone plan.

    Includes ``last``, its parents, its broadcast side inputs
    (``uses``), and so on transitively, in the original plan order.
    """
    by_id = {op.op_id: op for op in plan.ops}
    if last not in by_id:
        raise PlanError(f"{plan.name}: no op {last!r} to take a fragment of")
    keep = set()
    frontier = [last]
    while frontier:
        op_id = frontier.pop()
        if op_id in keep:
            continue
        keep.add(op_id)
        op = by_id[op_id]
        frontier.extend(op.parents)
        frontier.extend(op.uses)
    ops = [op for op in plan.ops if op.op_id in keep]
    tail = by_id[last]
    if tail.kind != "materialize":
        # A fragment measures an interior op, so its sink would be a
        # dead non-materialize — exactly what validate() rejects.  Give
        # the slice an explicit materialize sink; lowerings never see it
        # (they lower the chain window ending at ``last``).
        ops.append(_mk_materialize(
            f"{last}.sink", last,
            step=tail.step, blame=tail.blame or tail.op_id,
        ))
    sliced = _dc_replace(plan, ops=tuple(ops), params=dict(plan.params))
    return sliced.validate()


def measured_op(frag):
    """The op id a fragment was cut to measure: what its sink
    materializes (or the tail itself when that is a materialize)."""
    tail = frag.ops[-1]
    if tail.op_id == f"{tail.parents[0]}.sink":
        return tail.parents[0]
    return tail.op_id


# ----------------------------------------------------------------------
# The named slices figures 11 and 12 run
# ----------------------------------------------------------------------

def neuro_scan_fragment(**kwargs):
    """Fig 11: just the ``volumes`` scan (ingest)."""
    return fragment(neuro_plan(**kwargs), "volumes")


def neuro_filter_fragment(**kwargs):
    """Fig 12a: ``volumes -> b0`` (select the non-diffusion volumes)."""
    return fragment(neuro_plan(**kwargs), "b0")


def neuro_mean_fragment(**kwargs):
    """Fig 12b: ``volumes -> b0 -> mean_b0`` (per-subject mean)."""
    return fragment(neuro_plan(**kwargs), "mean_b0")


def neuro_denoise_fragment(**kwargs):
    """Fig 12c: up to ``denoise`` (includes the mask chain it uses)."""
    return fragment(neuro_plan(**kwargs), "denoise")


def astro_coadd_fragment(**kwargs):
    """Fig 12d: ``exposures -> ... -> coadd``."""
    return fragment(astro_plan(**kwargs), "coadd")

