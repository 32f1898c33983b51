"""Logical dataflow IR shared by both scientific pipelines.

A :class:`LogicalPlan` is a small DAG of typed operators (``scan``,
``filter``, ``map``, ``flat_map``, ``group_by``, ``join``, ``broadcast``,
``materialize``).  Each pipeline (neuro, astro) is expressed exactly once
as a plan; every engine owns a lowering backend
(``repro.engines.<engine>.lowering``) that translates the plan into its
native execution model.  The plan carries only *logical* structure plus
format/partitioning metadata.  Step bodies live in
``repro.pipelines.<pipeline>.reference`` and their prices in
``repro.pipelines.common``; physical choices (shuffle placement,
broadcast strategy, chunking) live in the lowerings, which call those
bodies and prices (TensorFlow's neuro lowering rewrites its steps as
graph ops instead).

Operators carry two pieces of cross-cutting metadata the harness relies
on:

``step``
    the paper-facing pipeline step the op belongs to (``"Segmentation"``,
    ``"Co-addition"``, ...) — used by ``loc.py`` for Table 1 accounting.

``blame``
    required on every ``materialize``: the blame-category tag the
    engine must attach when it forces the result (``validate()`` lints
    this so an untagged materialization cannot ship).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

# Re-exported: the pseudo-ops for physical work that maps to no logical
# operator are defined below ``repro.cluster``, which stamps one too.
from repro.obs.spans import (  # noqa: F401
    PSEUDO_IDLE,
    PSEUDO_OPS,
    PSEUDO_OVERHEAD,
    PSEUDO_RECOVERY,
)

OP_KINDS = (
    "scan",
    "filter",
    "map",
    "flat_map",
    "group_by",
    "join",
    "broadcast",
    "materialize",
)


def _fingerprint_canon(obj):
    """Canonical JSON for fingerprint documents (stable across runs)."""
    return json.dumps(obj, sort_keys=True, default=repr,
                      separators=(",", ":"))


def provenance_id(plan_name, op_id):
    """The stable provenance id of one logical op: ``"<plan>/<op_id>"``.

    This is the single definition every lowering backend references
    when tagging physical tasks, spans, and blame segments with the
    logical op that produced them.
    """
    return f"{plan_name}/{op_id}"


class PlanError(ValueError):
    """A logical plan failed validation."""


@dataclass(frozen=True)
class Op:
    """One typed operator in a logical plan."""

    op_id: str
    kind: str
    parents: Tuple[str, ...] = ()
    step: Optional[str] = None
    blame: Optional[str] = None
    uses: Tuple[str, ...] = ()
    params: Dict[str, object] = field(default_factory=dict)

    def param(self, name, default=None):
        return self.params.get(name, default)


def scan(op_id, *, step, format, **params):
    params["format"] = format
    return Op(op_id, "scan", (), step=step, params=params)


def filter_(op_id, parent, *, step, **params):
    return Op(op_id, "filter", (parent,), step=step, params=params)


def map_(op_id, parent, *, step, uses=(), **params):
    return Op(op_id, "map", (parent,), step=step, uses=tuple(uses),
              params=params)


def flat_map(op_id, parent, *, step, uses=(), **params):
    return Op(op_id, "flat_map", (parent,), step=step, uses=tuple(uses),
              params=params)


def group_by(op_id, parent, *, step, key, agg, partitions=None, **params):
    params.update({"key": key, "agg": agg, "partitions": partitions})
    return Op(op_id, "group_by", (parent,), step=step, params=params)


def join(op_id, left, right, *, step, on, **params):
    params["on"] = on
    return Op(op_id, "join", (left, right), step=step, params=params)


def broadcast(op_id, parent, *, step, **params):
    return Op(op_id, "broadcast", (parent,), step=step, params=params)


def materialize(op_id, parent, *, step, blame, **params):
    return Op(op_id, "materialize", (parent,), step=step, blame=blame,
              params=params)


# ----------------------------------------------------------------------
# Fused operators (produced by the optimizer, never written by hand)
# ----------------------------------------------------------------------

#: Param key under which a fused op carries its constituent members.
FUSED_PARAM = "fused"

#: Separator joining member op ids into a fused op id
#: (``"preprocess+patches"``).
FUSED_SEP = "+"


def is_fused(op):
    """True when ``op`` is an optimizer-fused carrier of several ops."""
    return FUSED_PARAM in op.params


def member_doc(op):
    """Serializable description of one op for embedding in a fused
    carrier's params (JSON-stable, round-trips through
    :func:`fused_members`)."""
    return {
        "op_id": op.op_id,
        "kind": op.kind,
        "step": op.step,
        "uses": list(op.uses),
        "params": dict(op.params),
    }


def fused_members(op):
    """The constituent :class:`Op` sequence a fused carrier stands for.

    Members come back with linearized parent edges (the first member
    inherits the carrier's parents, each later member chains on the
    previous one), so lowerings can expand a fused op into exactly the
    original physical sequence.  A non-fused op is its own single
    member.
    """
    docs = op.params.get(FUSED_PARAM)
    if not docs:
        return (op,)
    members = []
    prev = op.parents
    for doc in docs:
        member = Op(
            doc["op_id"],
            doc["kind"],
            tuple(prev),
            step=doc["step"],
            uses=tuple(doc["uses"]),
            params=dict(doc["params"]),
        )
        members.append(member)
        prev = (member.op_id,)
    return tuple(members)


@dataclass(frozen=True)
class LogicalPlan:
    """An ordered DAG of :class:`Op` nodes plus plan-level parameters."""

    name: str
    ops: Tuple[Op, ...]
    params: Dict[str, object] = field(default_factory=dict)

    def op(self, op_id):
        for op in self.ops:
            if op.op_id == op_id:
                return op
        raise KeyError(op_id)

    def carrier_of(self, op_id):
        """The op that *carries* ``op_id``: the op itself, or the fused
        carrier one of whose members it became after optimization."""
        for op in self.ops:
            if op.op_id == op_id:
                return op
            if is_fused(op):
                for doc in op.params[FUSED_PARAM]:
                    if doc["op_id"] == op_id:
                        return op
        raise KeyError(op_id)

    def member_param(self, op_id, name, default=None):
        """Param lookup that sees through fusion: reads ``name`` from the
        original op even when it now lives inside a fused carrier."""
        carrier = self.carrier_of(op_id)
        for member in fused_members(carrier):
            if member.op_id == op_id:
                return member.param(name, default)
        return carrier.param(name, default)

    def member(self, op_id):
        """The original op with ``op_id``, seen through fusion: the op
        itself, or its reconstructed member if the optimizer folded it
        into a fused carrier.  Raises ``KeyError`` for unknown ids."""
        carrier = self.carrier_of(op_id)
        for member in fused_members(carrier):
            if member.op_id == op_id:
                return member
        return carrier

    def chain(self, first, last):
        """The linear run of ops from ``first`` to ``last`` inclusive.

        Follows single-parent edges backward from ``last``; raises
        :class:`PlanError` if the segment branches or never reaches
        ``first``.  Endpoints may name ops that fusion folded into a
        carrier; the returned segment is then the carrier sequence.
        """
        first_carrier = self.carrier_of(first).op_id
        segment = [self.carrier_of(last)]
        while segment[-1].op_id != first_carrier:
            op = segment[-1]
            if len(op.parents) != 1:
                raise PlanError(
                    f"{self.name}: chain({first!r}, {last!r}) crosses "
                    f"non-linear op {op.op_id!r}"
                )
            segment.append(self.op(op.parents[0]))
        return tuple(reversed(segment))

    def expanded_chain(self, first, last):
        """Like :meth:`chain` but with fused carriers expanded back to
        their original member ops.

        The expansion is trimmed to the ``[first, last]`` window: a
        carrier straddling an endpoint only contributes the members
        inside the window.  Lowerings that execute ops one-by-one (the
        Spark walker) use this so an optimizer-fused plan lowers to the
        exact physical sequence the naive plan does.
        """
        ops = []
        for op in self.chain(first, last):
            ops.extend(fused_members(op))
        start = next(i for i, op in enumerate(ops) if op.op_id == first)
        stop = next(i for i, op in enumerate(ops) if op.op_id == last)
        return tuple(ops[start:stop + 1])

    def children_of(self, op_id):
        return tuple(op for op in self.ops if op_id in op.parents)

    def provenance(self, op_id):
        """Stable provenance id of ``op_id`` (raises ``KeyError`` if the
        op does not exist in this plan, even as a fused member)."""
        return provenance_id(self.name, self.member(op_id).op_id)

    def param(self, name, default=None):
        return self.params.get(name, default)

    def fingerprints(self):
        """op_id -> stable content fingerprint (sha256 hex) for every op.

        An op's fingerprint hashes its own identity (kind, params, step,
        blame) together with the fingerprints of its parents and
        broadcast side-inputs, plus the plan name and plan-level
        parameters.  Two ops agree iff their entire upstream sub-DAGs
        agree; ``OptimizationResult.fingerprint()`` folds these into
        the content address of an optimized plan.
        """
        fps = {}
        base = _fingerprint_canon({"plan": self.name, "params": self.params})
        for op in self.ops:
            doc = _fingerprint_canon({
                "base": base,
                "op": op.op_id,
                "kind": op.kind,
                "step": op.step,
                "blame": op.blame,
                "params": op.params,
                "parents": [fps[p] for p in op.parents],
                "uses": [fps[u] for u in op.uses],
            })
            fps[op.op_id] = hashlib.sha256(doc.encode("utf-8")).hexdigest()
        return fps

    def replace_ops(self, ops):
        """A copy of this plan with a new op tuple (params unchanged)."""
        return LogicalPlan(name=self.name, ops=tuple(ops), params=self.params)

    def _check_well_formed(self):
        """Reject duplicate op ids and cyclic parent references.

        These are structural defects the per-op lints below cannot
        diagnose well (a cycle shows up as a forward reference); each
        diagnostic names the offending op.
        """
        ids = []
        for op in self.ops:
            if op.op_id in ids:
                raise PlanError(
                    f"{self.name}: duplicate op id {op.op_id!r} "
                    f"(second definition is a {op.kind})"
                )
            ids.append(op.op_id)
        by_id = {op.op_id: op for op in self.ops}
        # Iterative three-color DFS over parent edges; a back edge means
        # the parent references are cyclic.
        state = {}  # op_id -> "active" | "done"
        for root in ids:
            if state.get(root) == "done":
                continue
            stack = [(root, iter(by_id[root].parents))]
            state[root] = "active"
            path = [root]
            while stack:
                op_id, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if parent not in by_id:
                        continue  # undefined parent: per-op lint reports it
                    if state.get(parent) == "active":
                        cycle = path[path.index(parent):] + [parent]
                        raise PlanError(
                            f"{self.name}: cyclic parent references "
                            f"involving {parent!r}: "
                            + " -> ".join(cycle)
                        )
                    if state.get(parent) != "done":
                        state[parent] = "active"
                        stack.append((parent, iter(by_id[parent].parents)))
                        path.append(parent)
                        advanced = True
                        break
                if not advanced:
                    state[op_id] = "done"
                    stack.pop()
                    path.pop()

    def validate(self):
        """Lint the plan; raises :class:`PlanError` on the first defect."""
        self._check_well_formed()
        seen = set()
        for op in self.ops:
            if op.kind not in OP_KINDS:
                raise PlanError(
                    f"{self.name}: {op.op_id!r} has unknown kind {op.kind!r}"
                )
            for parent in op.parents:
                if parent not in seen:
                    raise PlanError(
                        f"{self.name}: {op.op_id!r} references parent "
                        f"{parent!r} that is undefined or defined later"
                    )
            if op.step is None:
                raise PlanError(f"{self.name}: {op.op_id!r} has no step label")
            if op.kind == "scan":
                if op.parents:
                    raise PlanError(
                        f"{self.name}: scan {op.op_id!r} must not have parents"
                    )
                if not op.param("format"):
                    raise PlanError(
                        f"{self.name}: scan {op.op_id!r} lacks a format"
                    )
            elif not op.parents:
                raise PlanError(
                    f"{self.name}: {op.kind} {op.op_id!r} has no parents"
                )
            if op.kind == "group_by":
                if not op.param("key") or not op.param("agg"):
                    raise PlanError(
                        f"{self.name}: group_by {op.op_id!r} needs key and agg"
                    )
            if op.kind == "join":
                if len(op.parents) != 2:
                    raise PlanError(
                        f"{self.name}: join {op.op_id!r} needs two parents"
                    )
                if not op.param("on"):
                    raise PlanError(
                        f"{self.name}: join {op.op_id!r} lacks an 'on' key"
                    )
            if op.kind == "broadcast":
                parent = self.op(op.parents[0])
                if parent.kind != "materialize":
                    raise PlanError(
                        f"{self.name}: broadcast {op.op_id!r} must broadcast "
                        f"a materialized result, got {parent.kind!r}"
                    )
            if op.kind == "materialize" and not op.blame:
                raise PlanError(
                    f"{self.name}: materialize {op.op_id!r} has no blame tag"
                )
            for used in op.uses:
                if used not in seen:
                    raise PlanError(
                        f"{self.name}: {op.op_id!r} uses {used!r} before "
                        f"it is defined"
                    )
                if self.op(used).kind != "broadcast":
                    raise PlanError(
                        f"{self.name}: {op.op_id!r} uses non-broadcast op "
                        f"{used!r} as side input"
                    )
            seen.add(op.op_id)
        for op in self.ops:
            if op.kind in ("materialize", "broadcast"):
                continue
            if not self.children_of(op.op_id):
                raise PlanError(
                    f"{self.name}: {op.kind} {op.op_id!r} is dead (no "
                    f"consumer and not materialized)"
                )
        return self
