"""Property-based tests: the optimizer preserves plan semantics.

A reference interpreter evaluates randomly generated linear plans over
a toy record stream ``(meta, payload)``.  On every engine, whatever
fusions the optimizer fires, the interpreted outputs at every childless
materialize must be identical, the optimized plan must still validate
(``fuse_pair`` re-validates, so a crash here is a fusion bug), and
optimization must be idempotent (a second run over the result fires
nothing).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plan.ir import (
    LogicalPlan,
    filter_,
    flat_map,
    fused_members,
    map_,
    materialize,
    scan,
)
from repro.plan.opt import fuse_pair, fusion_sites, optimize_for
from repro.plan.route import ROUTABLE_ENGINES

_ENGINES = st.sampled_from(ROUTABLE_ENGINES)


# ----------------------------------------------------------------------
# Random linear plans
# ----------------------------------------------------------------------

_STAGE = st.one_of(
    st.tuples(
        st.just("map"),
        st.integers(0, 3),                 # kernel tag
    ),
    st.tuples(
        st.just("flat_map"),
        st.integers(0, 3),
        st.integers(1, 3),                 # fan-out (n_blocks)
    ),
    st.tuples(
        st.just("filter"),
        st.integers(1, 3),                 # keep meta % mod == 0
    ),
)

_CHAIN = st.lists(_STAGE, min_size=0, max_size=5)


def _build(stages):
    ops = [scan("src", step="S", format="npy")]
    prev = "src"
    for index, stage in enumerate(stages):
        op_id = f"op{index}"
        kind = stage[0]
        if kind == "map":
            ops.append(map_(op_id, prev, step="S", tag=stage[1]))
        elif kind == "flat_map":
            ops.append(flat_map(op_id, prev, step="S", tag=stage[1],
                                n_blocks=stage[2]))
        else:
            ops.append(filter_(op_id, prev, step="S", mod=stage[1]))
        prev = op_id
    ops.append(materialize("out", prev, step="S", blame="out"))
    return LogicalPlan(name="prop", ops=tuple(ops)).validate()


# ----------------------------------------------------------------------
# Reference interpreter
# ----------------------------------------------------------------------

def _eval_member(member, stream):
    kind = member.kind
    if kind == "scan":
        return [(meta, ("scan",)) for meta in range(6)]
    if kind == "map":
        # Rewrites metadata, so a reordered filter would be observable.
        tag = member.param("tag")
        return [(meta + 100 * (tag + 1), path + (("map", tag),))
                for meta, path in stream]
    if kind == "flat_map":
        tag = member.param("tag")
        fan = int(member.param("n_blocks") or 1)
        return [
            (meta, path + (("fm", tag, block),))
            for meta, path in stream
            for block in range(fan)
        ]
    if kind == "filter":
        mod = member.param("mod", 2)
        return [(meta, path) for meta, path in stream if meta % mod == 0]
    if kind == "materialize":
        return list(stream)
    raise AssertionError(f"interpreter has no rule for {kind}")


def _interpret(plan):
    """``{materialize_id: records}`` over the toy stream for every
    childless materialize, fused-op aware."""
    produced = {}
    for carrier in plan.ops:
        if carrier.parents:
            stream = produced[carrier.parents[0]]
        else:
            stream = None
        for member in fused_members(carrier):
            stream = _eval_member(member, stream)
        produced[carrier.op_id] = stream
    return {
        op.op_id: produced[op.op_id] for op in plan.ops
        if op.kind == "materialize" and not plan.children_of(op.op_id)
    }


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

@given(_CHAIN)
@settings(max_examples=60, deadline=None)
def test_structural_rewrites_preserve_interpretation(stages):
    # Every fusion site fused, unpriced: what no engine's cost guard
    # would all accept must still leave the outputs unchanged.
    plan = _build(stages)
    fused = plan
    while True:
        site = next(fusion_sites(fused), None)
        if site is None:
            break
        fused = fuse_pair(fused, *site)
    assert _interpret(fused) == _interpret(plan)


@given(_CHAIN, _ENGINES)
@settings(max_examples=60, deadline=None)
def test_engine_guarded_rewrites_preserve_interpretation(stages, engine):
    plan = _build(stages)
    result = optimize_for(plan, engine)
    assert result.engine == engine
    assert _interpret(result.plan) == _interpret(plan)


@given(_CHAIN, _ENGINES)
@settings(max_examples=40, deadline=None)
def test_optimization_is_idempotent(stages, engine):
    once = optimize_for(_build(stages), engine)
    twice = optimize_for(once.plan, engine)
    assert twice.firings == ()
    assert twice.plan.fingerprints() == once.plan.fingerprints()


@given(_CHAIN, _ENGINES)
@settings(max_examples=40, deadline=None)
def test_optimized_plans_validate_and_keep_outputs(stages, engine):
    plan = _build(stages)
    optimized = optimize_for(plan, engine).plan
    optimized.validate()  # idempotent re-lint must not raise
    assert _interpret(optimized).keys() == _interpret(plan).keys()


@given(_CHAIN, _ENGINES)
@settings(max_examples=40, deadline=None)
def test_fingerprint_is_deterministic(stages, engine):
    plan = _build(stages)
    assert optimize_for(plan, engine).fingerprint() == \
        optimize_for(plan, engine).fingerprint()
