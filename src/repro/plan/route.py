"""Cost-based engine routing over logical plans.

Two jobs live here:

1. :func:`estimate_plan_cost` — an analytic per-engine estimator over
   the same calibrated :class:`~repro.cluster.costs.CostModel` constants
   the trial cache keys on.  It prices a plan as
   ``startup + ingest + compute/parallelism + engine taxes`` where the
   taxes are each engine's structural signature: Spark's per-stage
   Python-boundary serialization, Dask's serial task dispatch and
   per-subject placement pinning, Myria's per-tuple operator overhead,
   TF's tensor conversion, SciDB's CSV/stream path.  The estimator is
   coarse in absolute terms; what the router and the optimizer need
   from it is *ordering* (which engine is cheapest, whether a fusion
   strictly helps a given engine), and the structural terms carry
   exactly those distinctions.

2. :func:`choose_engine` — Table-1-style routing: engines whose
   lowering cannot produce the plan's outputs (SciDB and TensorFlow
   refusals) are hard constraints, never cost entries; the cheapest
   fully-capable engine wins.

The estimator is also where fusion profitability is decided per engine:
Dask charges ``dask_task_overhead`` per graph node so collapsing a
narrow 1:1 chain strictly helps, while a fan-out ``flat_map`` that Dask
lowers one-task-per-output-element (``repart``'s per-block split) would
*duplicate* upstream member work — the estimator prices that
duplication, and the optimizer therefore rejects the rewrite.  Spark fuses
narrow chains into stages natively and Myria pipelines operators within
a fragment, so for them the same rewrite estimates neutral and is
rejected, keeping their optimized plans byte-identical to naive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cluster.costs import DEFAULT_COST_MODEL
from repro.plan.ir import fused_members

#: Engines the router may consider, in deterministic order.
ROUTABLE_ENGINES = ("dask", "myria", "spark", "scidb", "tensorflow")

#: (plan name, engine) -> (support level, reason).  Mirrors the paper's
#: Table 1: "full" lowers every op, "partial" stops mid-plan (NA/X
#: cells), and partial engines are hard refusals for end-to-end routing.
ENGINE_SUPPORT = {
    ("neuro", "spark"): ("full", "Figure 6 chain"),
    ("neuro", "dask"): ("full", "Figure 8 delayed graphs"),
    ("neuro", "myria"): ("full", "MyriaL + Python UDF/UDA"),
    ("neuro", "scidb"): (
        "partial", "stops after denoise: no model-fitting support (Table 1 X)"
    ),
    ("neuro", "tensorflow"): (
        "partial", "per-step graphs only; no end-to-end pipeline (Table 1 X)"
    ),
    ("astro", "spark"): ("full", "RDD lowering"),
    ("astro", "dask"): (
        "full", "runs here; excluded from the paper's charts (Section 4.4)"
    ),
    ("astro", "myria"): ("full", "MyriaL band queries"),
    ("astro", "scidb"): (
        "partial", "ingest + coadd subset only (Table 1 NA)"
    ),
    ("astro", "tensorflow"): (
        "na", "no TensorFlow lowering exists (Table 1 NA)"
    ),
}

#: Fraction of voxels inside the brain mask, used to scale the masked
#: kernels (denoise, model fit) before any mask is computed.  Calibrated
#: to the synthetic subjects' brain fraction (the harness blame ledger
#: shows ~121 s per denoised volume at nominal scale, which pins this
#: at 0.11 given ``nlmeans_per_voxel``).
NOMINAL_MASK_FRACTION = 0.11

#: Multiplier on kernel time for engines that evaluate per-record UDFs
#: across a language boundary.  Spark ships every record through the
#: JVM<->Python pipe around each UDF invocation (the Figure 12a story);
#: calibrated against the quick-profile blame ledger (Spark's
#: denoise-bearing stage runs ~1.6x Myria's on identical records).
KERNEL_FACTOR = {"spark": 1.6}

#: Effective slots one Dask chain (subject/visit) can recruit: its
#: pinned node's slots plus a work-stealing radius of about half a
#: neighbor.  Ingest placement pins each chain's graph to the node that
#: downloaded it; stealing moves only some leaf tasks off it.
DASK_CHAIN_SLOTS = 12

#: Effective cluster-wide slots Dask brings to bear before chains start
#: queueing.  Data-resident placement concentrates the graphs on the
#: few nodes that ingested them (the quick blame ledger shows ~90% of
#: tasks landing on one worker group), so the usable pool saturates
#: well below ``n_nodes x slots``.
DASK_EFFECTIVE_POOL = 24


def supports(plan_name, engine):
    """Support level + reason for one (plan, engine) pair.

    Unknown plans (fragments keep their parent plan's name; synthetic
    test plans do not) default to "full" — routing constraints encode
    Table 1 knowledge about the two real pipelines only.
    """
    return ENGINE_SUPPORT.get((plan_name, engine), ("full", "no constraint"))


# ----------------------------------------------------------------------
# Workload profiles
# ----------------------------------------------------------------------

DEFAULT_PROFILE = {
    "n_chains": 1,          # independent input groups (subjects / visits)
    "items_per_chain": 1,   # records per chain at the scan
    "bytes_per_item": 64.0,
    "elements_per_item": 8.0,
    "selectivity": {},      # filter op_id -> fraction kept
    "groups": {},           # group_by op_id -> group count
    "op_seconds": {},       # op_id -> seconds per input record (override)
    "chain_width": {},      # op_id -> records of one chain that run in
                            # parallel (overrides default_chain_width)
    "default_chain_width": None,  # None = all of a chain's records
    "samples_per_voxel": None,    # nominal measurements per voxel (fit)
}


def neuro_profile(subjects):
    """Profile of a neuro workload from its (already built) subjects."""
    import numpy as np

    from repro.data.neuro import NEURO_VOLUME_SHAPE

    elements = float(np.prod(NEURO_VOLUME_SHAPE))
    n_volumes = subjects[0].n_volumes if subjects else 1
    if subjects:
        # Each real volume stands in for a bundle of nominal volumes so
        # per-record sizes stay at paper scale (Subject.bundle).
        elements *= subjects[0].bundle
        b0 = float(np.mean([s.gtab.b0s_mask.mean() for s in subjects]))
    else:
        b0 = 0.1
    return {
        "n_chains": max(1, len(subjects)),
        "items_per_chain": n_volumes,
        "bytes_per_item": elements * 8.0,
        "elements_per_item": elements,
        "selectivity": {"b0": b0},
        "groups": {
            "mean_b0": max(1, len(subjects)),
            "regroup": max(1, len(subjects)) * 8,
        },
        "op_seconds": {},
        # Every lowering parallelizes a subject per volume record, so a
        # chain's width at any op is its record count (the default).
        "chain_width": {},
        "default_chain_width": None,
        "samples_per_voxel": n_volumes * (subjects[0].bundle if subjects
                                          else 1),
    }


def astro_profile(visits):
    """Profile of an astro workload from its (already built) visits."""
    import numpy as np

    from repro.data.astro import ASTRO_SENSOR_SHAPE

    pixels = float(np.prod(ASTRO_SENSOR_SHAPE))
    n_sensors = len(visits[0].exposures) if visits else 1
    n_visits = max(1, len(visits))
    # Each sensor exposure overlaps a handful of sky patches; the exact
    # count is geometry, four is the structural estimate.
    patches = max(1, n_sensors * 4)
    return {
        "n_chains": n_visits,
        "items_per_chain": n_sensors,
        "bytes_per_item": pixels * 8.0,
        "elements_per_item": pixels,
        "selectivity": {},
        "groups": {
            "stitch": patches * n_visits,
            "coadd": patches,
        },
        "op_seconds": {},
        # Every lowering processes a visit as one pipelined band
        # (Myria's per-visit band queries, Dask's pinned per-visit
        # graphs, Spark's per-visit partitions), so within a chain the
        # ops run serially — width 1, chains parallel across the
        # cluster.  The quick blame ledger confirms: preprocess elapsed
        # equals n_sensors x its per-exposure kernel time on all three
        # engines.
        "chain_width": {},
        "default_chain_width": 1,
        "samples_per_voxel": None,
    }


# ----------------------------------------------------------------------
# Kernel pricing (shared across engines)
# ----------------------------------------------------------------------

def _kernel_seconds(member, card_in, profile, cm):
    """Estimated seconds per *input record* of one member op's kernel."""
    override = profile["op_seconds"].get(member.op_id)
    if override is not None:
        return float(override)
    elements = profile["elements_per_item"]
    nbytes = profile["bytes_per_item"]
    kernel = member.param("kernel") or member.param("agg")
    if kernel in ("nlmeans_3d",):
        return elements * NOMINAL_MASK_FRACTION * cm.nlmeans_per_voxel
    if kernel in ("median_otsu",):
        return elements * 30.0 * cm.otsu_per_voxel
    if kernel in ("fit_dtm",):
        samples = profile.get("samples_per_voxel") or profile["items_per_chain"]
        blocks_per_chain = max(
            1, _group_fan(profile, "regroup") // max(1, profile["n_chains"])
        )
        block_elements = elements / blocks_per_chain
        return (
            block_elements * samples * NOMINAL_MASK_FRACTION
            * cm.dtm_fit_per_voxel_sample
        )
    if kernel in ("split_volume_blocks",):
        return nbytes * cm.memcpy_per_byte
    if kernel in ("mean_volume", "stack_volumes", "stitch_pieces"):
        return elements * cm.elementwise_per_element
    if kernel in ("preprocess_exposure",):
        return elements * cm.astro_preprocess_per_pixel
    if kernel in ("patch_pieces",):
        return elements * cm.astro_patch_per_pixel
    if kernel in ("coadd_patch",):
        iters = float(member.param("n_iter", 3))
        depth = profile["n_chains"]
        return elements * iters * depth * cm.coadd_iteration_per_pixel
    if kernel in ("detect",):
        return elements * cm.source_detect_per_pixel
    return 0.0


def _group_fan(profile, op_id):
    return profile["groups"].get(op_id, profile["n_chains"])


def _expansion(op):
    """Per-input fan-out of a flat_map lowered one-task-per-element."""
    if op.kind != "flat_map":
        return 1
    return int(op.param("n_blocks") or 1)


# ----------------------------------------------------------------------
# The estimator
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CostEstimate:
    """One engine's estimated breakdown for a plan."""

    engine: str
    total: float
    startup: float
    ingest: float
    compute: float
    tax: float

    def as_row(self):
        """Row form for CLI tables and snapshots."""
        return {
            "engine": self.engine,
            "total_s": self.total,
            "startup_s": self.startup,
            "ingest_s": self.ingest,
            "compute_s": self.compute,
            "tax_s": self.tax,
        }


def _walk(plan, profile):
    """Yield ``(carrier, member, card_in, card_out, dup, is_last)``.

    ``dup`` is the work-duplication factor a one-task-per-output-element
    lowering pays for this member: the product of the fan-outs of any
    later flat_map members *inside the same carrier*.  ``is_last`` marks
    the carrier's final member (the one whose output becomes a task).
    """
    cards = {}
    for carrier in plan.ops:
        members = fused_members(carrier)
        expansions = [_expansion(m) for m in members]
        for index, member in enumerate(members):
            if member.kind == "scan":
                card_in = profile["n_chains"] * profile["items_per_chain"]
                card_out = card_in
            else:
                parent = member.parents[0] if member.parents else None
                card_in = cards.get(parent, profile["n_chains"])
                card_out = card_in
                if member.kind == "filter":
                    card_out = card_in * profile["selectivity"].get(
                        member.op_id, 1.0
                    )
                elif member.kind == "flat_map":
                    card_out = card_in * max(1, _expansion(member))
                elif member.kind == "group_by":
                    card_out = _group_fan(profile, member.op_id)
            dup = 1
            for later in expansions[index + 1:]:
                dup *= max(1, later)
            cards[member.op_id] = card_out
            yield carrier, member, card_in, card_out, dup, (
                index == len(members) - 1
            )
        cards[carrier.op_id] = cards[members[-1].op_id]


def estimate_plan_cost(plan, engine, profile=None, cost_model=None,
                       n_nodes=16, slots_per_node=8):
    """Estimated simulated seconds for ``plan`` on ``engine``.

    Returns a :class:`CostEstimate`; see the module docstring for what
    the terms model and what the estimate is (and is not) good for.
    """
    cm = cost_model or DEFAULT_COST_MODEL
    prof = dict(DEFAULT_PROFILE)
    prof.update(profile or {})
    total_slots = n_nodes * slots_per_node

    startup = {
        "spark": cm.spark_job_startup,
        "myria": cm.myria_query_startup,
        "dask": cm.dask_job_startup,
        "tensorflow": cm.tf_session_startup,
        "scidb": cm.scidb_query_startup,
    }.get(engine, 0.0)

    # -- shared ingest: every engine pulls the scan bytes from S3 ------
    scan_items = prof["n_chains"] * prof["items_per_chain"]
    scan_bytes = scan_items * prof["bytes_per_item"]
    ingest = scan_bytes / (cm.s3_bandwidth_per_node * n_nodes)
    ingest += cm.s3_request_latency * scan_items / max(1, total_slots)

    # -- engine parallelism model --------------------------------------
    # Two caps bound each op's effective parallelism: the engine's slot
    # pool, and how wide one chain's records can spread on this engine.
    if engine == "dask":
        # Ingest placement pins one chain (subject/visit) per node; the
        # graph stays resident where it was downloaded and work stealing
        # moves only a fringe of tasks off that node.
        pool = min(total_slots, DASK_EFFECTIVE_POOL)
        chain_cap = DASK_CHAIN_SLOTS
    elif engine == "myria":
        pool = chain_cap = n_nodes * 4  # worker processes, one slot each
    else:
        pool = chain_cap = total_slots
    factor = KERNEL_FACTOR.get(engine, 1.0)

    compute = 0.0
    tax = 0.0
    n_tasks_dask = 0.0
    tuples_myria = 0.0
    n_stages_spark = 1
    n_chains = max(1, prof["n_chains"])
    for carrier, member, card_in, card_out, dup, is_last in _walk(plan, prof):
        sec = _kernel_seconds(member, card_in, prof, cm) * factor
        if sec > 0.0 and card_in > 0.0:
            # Records of one chain that this op can run concurrently.
            width = prof["chain_width"].get(
                member.op_id, prof.get("default_chain_width")
            )
            if width is None:
                width = max(1.0, card_in / n_chains)
            eff = min(pool, n_chains * min(width, chain_cap))
            waves = math.ceil(card_in / max(1.0, eff))
            compute += sec * dup * waves
        if engine == "dask" and is_last and carrier.kind not in (
            "materialize", "broadcast"
        ):
            n_tasks_dask += max(1.0, card_out)
        if engine == "myria" and member.kind != "materialize":
            tuples_myria += card_in
        if engine == "spark" and member.kind in ("group_by", "materialize"):
            n_stages_spark += 1

    if engine == "spark":
        tax += n_stages_spark * cm.spark_task_overhead
        # Each stage boundary ships the live dataset across the
        # JVM<->Python pipe (and pickles it), spread over the nodes.
        tax += n_stages_spark * (
            cm.python_boundary_time(scan_bytes) + cm.pickle_time(scan_bytes)
        ) / max(1, n_nodes)
    elif engine == "dask":
        # Centralized dispatch releases tasks serially.
        tax += n_tasks_dask * cm.dask_task_overhead
    elif engine == "myria":
        tax += tuples_myria * cm.myria_operator_overhead / max(1, pool)
        tax += tuples_myria * cm.myria_insert_per_tuple / max(1, pool)
    elif engine == "tensorflow":
        tax += cm.tensor_convert_time(scan_bytes) / max(1, n_nodes)
        tax += len(plan.ops) * cm.tf_step_overhead
    elif engine == "scidb":
        tax += (scan_bytes / cm.csv_encode_bandwidth) / max(1, n_nodes)
        tax += (scan_bytes / cm.scidb_from_array_bandwidth) / max(1, n_nodes)

    total = startup + ingest + compute + tax
    return CostEstimate(
        engine=engine,
        total=total,
        startup=startup,
        ingest=ingest,
        compute=compute,
        tax=tax,
    )


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of routing one plan: chosen engine + the full table."""

    engine: str
    estimates: Tuple[CostEstimate, ...]
    refusals: Dict[str, str]

    def as_rows(self):
        """Serializable routing table (refusals carry no estimate)."""
        rows = [dict(e.as_row(), chosen=(e.engine == self.engine))
                for e in self.estimates]
        rows.extend(
            {"engine": engine, "refused": reason}
            for engine, reason in sorted(self.refusals.items())
        )
        return rows


def choose_engine(plan, profile=None, cost_model=None, n_nodes=16,
                  slots_per_node=8, candidates=None):
    """Pick the cheapest fully-capable engine for ``plan``.

    SciDB/TF partial lowerings are Table-1 hard constraints: they are
    reported as refusals, never priced.  Raises :class:`ValueError`
    when no candidate engine can run the plan at all.
    """
    candidates = tuple(candidates or ROUTABLE_ENGINES)
    estimates = []
    refusals = {}
    for engine in candidates:
        level, reason = supports(plan.name, engine)
        if level != "full":
            refusals[engine] = reason
            continue
        estimates.append(estimate_plan_cost(
            plan, engine, profile=profile, cost_model=cost_model,
            n_nodes=n_nodes, slots_per_node=slots_per_node,
        ))
    if not estimates:
        raise ValueError(
            f"no engine can run plan {plan.name!r} end to end: {refusals}"
        )
    best = min(estimates, key=lambda e: (e.total, e.engine))
    return RoutingDecision(
        engine=best.engine,
        estimates=tuple(estimates),
        refusals=refusals,
    )
