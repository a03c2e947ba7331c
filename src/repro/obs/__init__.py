"""Observability layer: event tracing, metrics, spans and work counts.

Four modules, one install slot:

* :mod:`repro.obs.events` — the structured event-tracing bus the kernel
  emits protocol events onto, and the one observability slot every hook
  reads (strict no-op when nothing is installed);
* :mod:`repro.obs.registry` — counters and histogram summaries,
  per-run with per-sweep roll-up;
* :mod:`repro.obs.profile` — opt-in hierarchical wall-clock spans
  (chrome-trace export), the one module allowed to read the host clock;
* :mod:`repro.obs.counters` — deterministic work counters: no clock, no
  randomness, byte-identical tallies on every machine (the bench gate's
  zero-tolerance work metrics).

See ``docs/observability.md`` for the event catalog and usage.
"""

from repro.obs.counters import (
    WorkCounters,
    count,
    count_work,
    diff_counts,
    merge_counts,
    work_lane,
)
from repro.obs.events import (
    EVENT_CATALOG,
    TRACE_SCHEMA_VERSION,
    RunObserver,
    Sink,
    emit,
    observe,
    observe_run,
    observe_value,
    read_events,
    tracing_enabled,
)
from repro.obs.events_schema import EVENT_SCHEMAS, EventSpec, validate_record
from repro.obs.profile import SpanProfiler, profile_spans, span
from repro.obs.registry import HistogramSummary, MetricsRegistry, merge_snapshots

__all__ = [
    "EVENT_CATALOG",
    "EVENT_SCHEMAS",
    "EventSpec",
    "TRACE_SCHEMA_VERSION",
    "validate_record",
    "RunObserver",
    "Sink",
    "emit",
    "observe",
    "observe_run",
    "observe_value",
    "read_events",
    "tracing_enabled",
    "HistogramSummary",
    "MetricsRegistry",
    "merge_snapshots",
    "SpanProfiler",
    "profile_spans",
    "span",
    "WorkCounters",
    "count",
    "count_work",
    "diff_counts",
    "merge_counts",
    "work_lane",
]
