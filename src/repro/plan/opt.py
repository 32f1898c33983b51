"""The optimizer: narrow-map fusion, priced per engine.

The optimizer has one rewrite.  It fuses ``b`` (a ``map``/``flat_map``)
into its single parent ``a`` when ``b`` is ``a``'s only consumer and
``a`` is itself narrow (scan, filter, map, flat_map).  The fused carrier
remembers its members (see :func:`repro.plan.ir.fused_members`), so a
lowering can either execute the members as one physical task (Dask,
where every graph node pays ``dask_task_overhead``) or expand them back
to the original sequence (Spark, whose scheduler already pipelines
narrow ops into stages).

Whether a fusion *pays* is the per-engine estimate's call
(:func:`repro.plan.route.estimate_plan_cost`): :func:`optimize_for`
takes the first site whose fused plan prices strictly lower, records a
:class:`RuleFiring`, and scans the new plan again from the start.  A
rewrite an engine cannot exploit estimates as cost-neutral and is
rejected, leaving the plan byte-identical to the naive one; fusing a map
into a fan-out ``flat_map`` that Dask lowers one task per output element
would duplicate the map's work, and the estimate prices exactly that.
Every firing is kept, so ``harness optimize`` can explain what was done;
``harness ledger --optimize`` checks that each measured optimized cell
is no slower than naive and returns the same bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from dataclasses import replace as _dc_replace
from typing import Tuple

from repro.plan.ir import FUSED_SEP, Op, fused_members, member_doc
from repro.plan.route import estimate_plan_cost

#: Op kinds a narrow op may be fused into.
FUSABLE_PARENTS = ("scan", "filter", "map", "flat_map")

#: Op kinds that may be fused into their parent.
FUSABLE_CHILDREN = ("map", "flat_map")

#: A fusion is kept only when it saves more than this many estimated
#: seconds, so float noise never turns a neutral rewrite into a firing.
EPSILON = 1e-9


@dataclass(frozen=True)
class RuleFiring:
    """One accepted fusion, for the firing trace."""

    site: Tuple[str, ...]        # (parent op id, fused child op id)
    detail: str                  # human-readable description
    saving: float                # estimated seconds saved

    def as_row(self):
        """Row form for snapshots and CLI tables."""
        return {
            "site": list(self.site),
            "detail": self.detail,
            "saving_s": self.saving,
        }


@dataclass(frozen=True)
class OptimizationResult:
    """An optimized plan plus the trace of how it got that way."""

    plan: "LogicalPlan"
    firings: Tuple[RuleFiring, ...]
    engine: str

    def fingerprint(self):
        """Stable hash of the optimization outcome.

        Joins the trial cache key so optimized and naive runs of the
        same figure coexist in the trial cache.  An empty trace hashes
        to a stable "unchanged" token, distinct from the naive path not
        passing any optimizer descriptor at all.
        """
        doc = json.dumps(
            {
                "engine": self.engine,
                "firings": [f.as_row() for f in self.firings],
                "plan": sorted(self.plan.fingerprints().items()),
            },
            sort_keys=True,
            default=repr,
        )
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def rewire(ops, old_id, new_id):
    """Point every parent/uses reference to ``old_id`` at ``new_id``."""
    out = []
    for op in ops:
        parents = tuple(new_id if p == old_id else p for p in op.parents)
        uses = tuple(new_id if u == old_id else u for u in op.uses)
        if parents != op.parents or uses != op.uses:
            op = _dc_replace(op, parents=parents, uses=uses)
        out.append(op)
    return tuple(out)


def consumers_of(plan, op_id):
    """Every op consuming ``op_id`` — as a parent or a side input."""
    return tuple(
        op for op in plan.ops
        if op_id in op.parents or op_id in op.uses
    )


def _carrier_kind(members):
    kinds = [m.kind for m in members]
    if "scan" in kinds:
        return "scan"
    if "flat_map" in kinds:
        return "flat_map"
    if "map" in kinds:
        return "map"
    return "filter"


def fuse_pair(plan, a_id, b_id):
    """The plan with ``b_id`` fused into ``a_id`` (not priced)."""
    a = plan.op(a_id)
    b = plan.op(b_id)
    members = fused_members(a) + fused_members(b)
    params = {"fused": tuple(member_doc(m) for m in members)}
    if members[0].kind == "scan":
        # The scan lint requires a format on the carrier itself.
        params["format"] = members[0].param("format")
    carrier = Op(
        op_id=FUSED_SEP.join(m.op_id for m in members),
        kind=_carrier_kind(members),
        parents=a.parents,
        step=b.step,
        uses=tuple(dict.fromkeys(a.uses + b.uses)),
        params=params,
    )
    ops = []
    for op in plan.ops:
        if op.op_id == a.op_id:
            ops.append(carrier)
        elif op.op_id != b.op_id:
            ops.append(op)
    ops = rewire(ops, b.op_id, carrier.op_id)
    ops = rewire(ops, a.op_id, carrier.op_id)
    return plan.replace_ops(ops).validate()


def fusion_sites(plan):
    """Every ``(a_id, b_id)`` pair :func:`fuse_pair` may fuse, in plan
    order: ``b`` narrow with ``a`` as its one parent, ``a`` narrow with
    ``b`` as its one consumer."""
    for b in plan.ops:
        if b.kind not in FUSABLE_CHILDREN or len(b.parents) != 1:
            continue
        a = plan.op(b.parents[0])
        if a.kind in FUSABLE_PARENTS and len(consumers_of(plan, a.op_id)) == 1:
            yield (a.op_id, b.op_id)


def optimize_for(plan, engine, profile=None, cost_model=None, n_nodes=16):
    """Fuse ``plan`` greedily for ``engine`` at ``n_nodes`` nodes.

    ``profile`` describes the workload's nominal sizes (see
    :mod:`repro.plan.route`); without one a generic unit profile is
    used, which preserves the estimate's *relative* judgments (per-task
    overheads and duplication factors) even if absolute seconds are
    meaningless.
    """
    def cost(candidate):
        return estimate_plan_cost(
            candidate, engine, profile=profile, cost_model=cost_model,
            n_nodes=n_nodes,
        ).total

    firings = []
    current = cost(plan)
    while True:
        for a_id, b_id in fusion_sites(plan):
            candidate = fuse_pair(plan, a_id, b_id)
            candidate_cost = cost(candidate)
            saving = current - candidate_cost
            if saving > EPSILON:
                firings.append(RuleFiring(
                    site=(a_id, b_id),
                    detail=f"fuse {b_id!r} into {a_id!r}"
                           " (one physical task per input)",
                    saving=saving,
                ))
                plan, current = candidate, candidate_cost
                break
        else:
            return OptimizationResult(plan, tuple(firings), engine)
