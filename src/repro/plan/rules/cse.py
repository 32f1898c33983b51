"""Common-subexpression elimination across shared scan prefixes.

Two ops with identical *structural* fingerprints (same kind, params and
step over structurally identical upstream sub-DAGs — op names ignored,
see :meth:`LogicalPlan.structural_fingerprints`) compute the same
result; the later one is dropped and its consumers rewired to the
survivor.  This fires on plans assembled from fragments that each
re-declare the same scan chain — exactly what gluing micro-benchmark
fragments together produces.

``materialize`` and ``broadcast`` ops are never merged: a materialize's
identity (its blame tag, the barrier it forces) is part of the figure's
contract even when two of them hold equal bytes.
"""

from repro.plan.opt import RewriteRule
from repro.plan.rules.base import drop, rewire

_MERGEABLE = ("scan", "filter", "map", "flat_map", "group_by", "join")


class EliminateCommonSubexpressions(RewriteRule):
    """Merge structurally identical computation ops."""

    name = "common-subexpression-elimination"

    def sites(self, plan):
        fps = plan.structural_fingerprints()
        survivors = {}
        for op in plan.ops:
            if op.kind not in _MERGEABLE:
                continue
            fp = fps[op.op_id]
            if fp in survivors:
                yield (survivors[fp], op.op_id)
            else:
                survivors[fp] = op.op_id

    def apply(self, plan, site):
        keep_id, dup_id = site
        ops = rewire(drop(plan.ops, dup_id), dup_id, keep_id)
        return plan.replace_ops(ops).validate()

    def describe(self, plan, site):
        keep_id, dup_id = site
        return (
            f"merge {dup_id!r} into structurally identical {keep_id!r} "
            f"(shared upstream computed once)"
        )
