"""Cluster-wide observability: records, spans, trackers, exporters.

The paper's conclusions come from explaining *where time goes* in each
system (startup, format conversion, shuffles, memory pressure --
Figures 10-15).  A run keeps one account of itself -- a
:class:`TaskRecord` per task, the spans engines open, byte counters on
the network model, peaks and a step history on each node's memory
tracker -- and everything here reads it afterwards:

- :mod:`repro.obs.spans` -- task records and the named, nested spans
  engines wrap their stages in (``with cluster.obs.span("spark-stage0"):
  ...``).
- :mod:`repro.obs.breakdown` -- per-group "where did the time go"
  summaries, straggler spread, and the plain-text report.
- :mod:`repro.obs.chrome_trace` -- Chrome ``trace_event`` JSON export
  (chrome://tracing / Perfetto).
- :mod:`repro.obs.critical_path` -- critical-path reconstruction and
  per-resource blame attribution over the recorded task DAG.
- :mod:`repro.obs.attribution` -- folds critical-path blame up to the
  logical ops of ``repro.plan`` for cross-engine per-op comparison.
- :mod:`repro.obs.metrics` -- counter/gauge/histogram primitives.
- :mod:`repro.obs.telemetry` -- wall-clock self-telemetry for the
  harness process itself (phases and metrics).
- :mod:`repro.obs.ledger` -- versioned JSON run snapshots under
  ``benchmarks/ledger/`` and regression diffing between them
  (``python -m repro.harness compare``).

See the "Observability" section of DESIGN.md and
``python -m repro.harness trace`` for the end-to-end workflow.
"""

from repro.obs.attribution import (
    attribute_critical_path,
    format_attribution,
    resolve_segment_op,
)
from repro.obs.breakdown import (
    default_grouper,
    format_breakdown,
    node_utilization_rows,
    records_of,
    straggler_rows,
    summarize_records,
)
from repro.obs.chrome_trace import chrome_trace, write_chrome_trace
from repro.obs.critical_path import (
    CriticalPath,
    PathSegment,
    blame_category,
    compute_critical_path,
    format_critical_path,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.ledger import (
    LedgerSchemaError,
    compare_snapshots,
    experiment_snapshot,
    format_compare,
    load_snapshot,
    run_snapshot,
    write_snapshot,
)
from repro.obs.optledger import (
    format_opt_comparison,
    opt_pairs,
)
from repro.obs.spans import Observability, Span, SpanStore, TaskRecord
from repro.obs.telemetry import (
    NULL_RECORDER,
    PhaseRecorder,
    recorder,
    recording,
    telemetry_phase,
)

__all__ = [
    "Counter",
    "CriticalPath",
    "Gauge",
    "Histogram",
    "LedgerSchemaError",
    "NULL_RECORDER",
    "PhaseRecorder",
    "MetricsRegistry",
    "Observability",
    "PathSegment",
    "Span",
    "SpanStore",
    "TaskRecord",
    "attribute_critical_path",
    "blame_category",
    "chrome_trace",
    "compare_snapshots",
    "compute_critical_path",
    "default_grouper",
    "experiment_snapshot",
    "format_attribution",
    "format_breakdown",
    "format_compare",
    "format_critical_path",
    "format_opt_comparison",
    "load_snapshot",
    "node_utilization_rows",
    "opt_pairs",
    "recorder",
    "recording",
    "records_of",
    "resolve_segment_op",
    "run_snapshot",
    "straggler_rows",
    "summarize_records",
    "telemetry_phase",
    "write_chrome_trace",
    "write_snapshot",
]
