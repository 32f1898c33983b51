"""Rewrite-rule engine over :class:`~repro.plan.ir.LogicalPlan`.

The optimizer applies a catalog of semantics-preserving rewrite rules
(`repro.plan.rules`) to fixpoint under a bounded pass budget.  Each rule
is *match + apply + cost-guard*: ``sites()`` enumerates candidate
rewrite sites, ``apply()`` produces a rewritten (and re-validated) plan,
and the optimizer keeps the rewrite only when the cost guard says the
target engine strictly benefits.  Every accepted rewrite is recorded in
a :class:`RuleFiring` trace, so `harness optimize` can explain exactly
what the compiler did and why — the raco ``rules.py``/``opt_rules``
shape, scaled to this repo's IR.

Guards are deliberately conservative: a rewrite that an engine cannot
exploit (Spark already pipelines narrow chains into stages; Myria
pipelines operators within a fragment) estimates as cost-neutral and is
*rejected*, leaving the plan byte-identical to the naive one.  That is
what makes ``optimized makespan <= naive`` a guarantee rather than a
hope: only strictly-winning rewrites survive.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Default bound on full rule-catalog passes before the optimizer stops
#: (a safety valve; real plans reach fixpoint in one or two passes).
MAX_PASSES = 8


@dataclass(frozen=True)
class RuleFiring:
    """One accepted rewrite, for the firing trace."""

    rule: str                    # rule name
    pass_no: int                 # which fixpoint pass fired it
    site: Tuple[str, ...]        # op ids the rewrite touched
    detail: str                  # human-readable description
    saving: Optional[float] = None   # estimated seconds saved (guarded mode)

    def as_row(self):
        """Row form for snapshots and CLI tables."""
        return {
            "rule": self.rule,
            "pass": self.pass_no,
            "site": list(self.site),
            "detail": self.detail,
            "saving_s": self.saving,
        }


@dataclass(frozen=True)
class OptimizationResult:
    """An optimized plan plus the trace of how it got that way."""

    plan: "LogicalPlan"
    firings: Tuple[RuleFiring, ...] = ()
    engine: Optional[str] = None
    passes: int = 0

    @property
    def changed(self):
        """Changed."""
        return bool(self.firings)

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

    def trace_rows(self):
        """Trace rows."""
        return [f.as_row() for f in self.firings]


class RewriteRule:
    """Base class: match + apply (+ describe) for one rewrite."""

    #: Rule name used in firing traces; subclasses override.
    name = "rule"

    def sites(self, plan):
        """Candidate rewrite sites, each a tuple of op ids."""
        raise NotImplementedError

    def apply(self, plan, site):
        """Rewrite ``plan`` at ``site``; returns a *validated* new plan."""
        raise NotImplementedError

    def describe(self, plan, site):
        """One-line description of the rewrite at ``site``."""
        return f"{self.name} at {site}"


class CostGuard:
    """Decides whether a candidate rewrite is kept.

    ``estimate(plan)`` prices a whole plan in estimated simulated
    seconds for the guard's engine; ``accepts`` keeps a rewrite only on
    strict improvement beyond a tiny epsilon (so float noise can never
    flip a neutral rewrite into an accepted one).
    """

    epsilon = 1e-9

    def __init__(self, estimate, engine=None):
        self._estimate = estimate
        self.engine = engine

    def estimate(self, plan):
        """Estimate."""
        return float(self._estimate(plan))

    def accepts(self, before, after):
        """Returns the estimated saving if strictly positive, else None."""
        saving = self.estimate(before) - self.estimate(after)
        if saving > self.epsilon:
            return saving
        return None


def structural_guard():
    """Engine-agnostic guard: fewer/cheaper ops win.

    Used when optimizing without an engine target (tests, the `harness
    optimize` explain view): prices a plan by op count with materialize
    weighted heaviest, so elision/CSE/fusion all register as wins while
    pushdown — which only reorders — is accepted via its own structural
    preference (a filter earlier in the chain counts fractionally less).
    """
    weights = {"materialize": 4.0, "group_by": 2.0}

    def estimate(plan):
        total = 0.0
        for index, op in enumerate(plan.ops):
            weight = weights.get(op.kind, 1.0)
            if op.kind == "filter":
                # Earlier filters are better: weight grows with depth.
                weight = 1.0 + 0.01 * index
            total += weight
        return total

    return CostGuard(estimate, engine=None)


class Optimizer:
    """Applies a rule catalog to fixpoint under a pass budget."""

    def __init__(self, rules, max_passes=MAX_PASSES):
        self.rules = tuple(rules)
        self.max_passes = max_passes

    def optimize(self, plan, guard=None):
        """Rewrite ``plan`` to fixpoint; returns :class:`OptimizationResult`.

        Each pass offers every rule every current site; a rewrite is
        kept only when the guard accepts it.  The pass loop ends when a
        full pass accepts nothing or the pass budget runs out.
        """
        if guard is None:
            guard = structural_guard()
        current = plan
        firings = []
        passes = 0
        for pass_no in range(1, self.max_passes + 1):
            passes = pass_no
            fired_this_pass = False
            for rule in self.rules:
                # Re-enumerate after every accepted rewrite: sites are
                # positional and a rewrite invalidates its siblings.
                while True:
                    accepted = False
                    for site in rule.sites(current):
                        candidate = rule.apply(current, site)
                        saving = guard.accepts(current, candidate)
                        if saving is None:
                            continue
                        firings.append(RuleFiring(
                            rule=rule.name,
                            pass_no=pass_no,
                            site=tuple(site),
                            detail=rule.describe(current, site),
                            saving=saving,
                        ))
                        current = candidate
                        accepted = True
                        fired_this_pass = True
                        break
                    if not accepted:
                        break
            if not fired_this_pass:
                break
        return OptimizationResult(
            plan=current,
            firings=tuple(firings),
            engine=guard.engine,
            passes=passes,
        )


def default_optimizer():
    """The standard rule catalog, in application order."""
    from repro.plan.rules import DEFAULT_RULES

    return Optimizer(DEFAULT_RULES)


def optimize_for(plan, engine, profile=None, cost_model=None):
    """Optimize ``plan`` for one engine under its calibrated cost guard.

    ``profile`` describes the workload's nominal sizes (see
    :mod:`repro.plan.route`); without one a generic unit profile is
    used, which preserves the guard's *relative* judgments (per-task
    overheads and duplication factors) even if absolute seconds are
    meaningless.
    """
    from repro.plan.route import engine_guard

    guard = engine_guard(engine, profile=profile, cost_model=cost_model)
    return default_optimizer().optimize(plan, guard=guard)


def optimize_logical(plan):
    """Optimize ``plan`` with the engine-agnostic structural guard."""
    return default_optimizer().optimize(plan)
