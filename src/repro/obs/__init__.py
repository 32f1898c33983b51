"""Cluster-wide observability: events, metrics, spans, exporters.

The paper's conclusions come from explaining *where time goes* in each
system (startup, format conversion, shuffles, memory pressure --
Figures 10-15).  This package makes those explanations observable from
any simulated run:

- :mod:`repro.obs.events` -- typed lifecycle events on a per-cluster
  bus (``cluster.obs.events``), with zero overhead while nobody
  subscribes.
- :mod:`repro.obs.metrics` -- counters/gauges/histograms populated
  from the bus by :class:`ClusterMetrics`.
- :mod:`repro.obs.spans` -- named, nested spans engines wrap their
  stages in (``with cluster.obs.span("spark-stage0"): ...``).
- :mod:`repro.obs.breakdown` -- per-group "where did the time go"
  summaries and the plain-text report.
- :mod:`repro.obs.chrome_trace` -- Chrome ``trace_event`` JSON export
  (chrome://tracing / Perfetto).
- :mod:`repro.obs.critical_path` -- critical-path reconstruction and
  per-resource blame attribution over the recorded task DAG.
- :mod:`repro.obs.attribution` -- folds critical-path blame up to the
  logical ops of ``repro.plan`` for cross-engine per-op comparison.
- :mod:`repro.obs.telemetry` -- wall-clock self-telemetry for the
  harness process itself (phases, structured JSON logs, metrics).
- :mod:`repro.obs.ledger` -- versioned JSON run snapshots under
  ``benchmarks/ledger/`` and regression diffing between them
  (``python -m repro.harness compare``).

See the "Observability" section of DESIGN.md and
``python -m repro.harness trace`` for the end-to-end workflow.
"""

from repro.obs.attribution import (
    attribute_critical_path,
    format_attribution,
    format_op_table,
    op_table,
    op_totals,
    resolve_segment_op,
)
from repro.obs.breakdown import (
    default_grouper,
    format_breakdown,
    group_of,
    node_utilization_rows,
    records_of,
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
from repro.obs.events import (
    BroadcastSent,
    Event,
    EventBus,
    MemoryAllocated,
    MemoryFreed,
    MemoryOOM,
    MemorySpilled,
    NetworkTransfer,
    NodeCrashed,
    NodeRecovered,
    ObjectGet,
    ObjectPut,
    QueryRestarted,
    S3Download,
    SpanClosed,
    SpanOpened,
    TaskFailed,
    TaskFinished,
    TaskPlaced,
    TaskQueued,
    TaskRetried,
    TaskStarted,
)
from repro.obs.metrics import (
    ClusterMetrics,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
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
    check_opt_snapshot,
    format_opt_comparison,
    opt_comparison_rows,
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
    "BroadcastSent",
    "ClusterMetrics",
    "Counter",
    "CriticalPath",
    "Event",
    "EventBus",
    "Gauge",
    "Histogram",
    "LedgerSchemaError",
    "NULL_RECORDER",
    "PhaseRecorder",
    "MemoryAllocated",
    "MemoryFreed",
    "MemoryOOM",
    "MemorySpilled",
    "MetricsRegistry",
    "NetworkTransfer",
    "NodeCrashed",
    "NodeRecovered",
    "ObjectGet",
    "ObjectPut",
    "Observability",
    "PathSegment",
    "QueryRestarted",
    "S3Download",
    "Span",
    "SpanClosed",
    "SpanOpened",
    "SpanStore",
    "TaskFailed",
    "TaskFinished",
    "TaskPlaced",
    "TaskQueued",
    "TaskRecord",
    "TaskRetried",
    "TaskStarted",
    "attribute_critical_path",
    "blame_category",
    "check_opt_snapshot",
    "chrome_trace",
    "compare_snapshots",
    "compute_critical_path",
    "default_grouper",
    "experiment_snapshot",
    "format_attribution",
    "format_breakdown",
    "format_compare",
    "format_critical_path",
    "format_op_table",
    "format_opt_comparison",
    "group_of",
    "load_snapshot",
    "node_utilization_rows",
    "op_table",
    "op_totals",
    "opt_comparison_rows",
    "opt_pairs",
    "recorder",
    "recording",
    "records_of",
    "resolve_segment_op",
    "run_snapshot",
    "summarize_records",
    "telemetry_phase",
    "write_chrome_trace",
    "write_snapshot",
]
