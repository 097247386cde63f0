"""Tuner observability: hierarchical spans, metrics, events, trace analysis.

Layers:

* :mod:`~repro.telemetry.spans` — :class:`OpSpan`, the one span class,
  opened through contextvar-backed ``span`` / ``trial_scope`` /
  ``emit_event`` with a strict no-op fast path when no trace is active;
* :mod:`~repro.telemetry.metrics` — counters/gauges/latency histograms
  with JSON and Prometheus exposition;
* :mod:`~repro.telemetry.events` — bounded structured event log;
* :mod:`~repro.telemetry.tracing` — :class:`SessionTrace`: the span ring
  (a trial is a root span named ``session.trial``), metrics, events, and
  the schema-2 JSON export;
* :mod:`~repro.telemetry.export` — Chrome trace-event conversion (open in
  Perfetto);
* :mod:`~repro.telemetry.analyzer` — offline analysis for ``repro trace``;
* :mod:`~repro.telemetry.callback` — session wiring.

See ``docs/observability.md`` for the span hierarchy, metric naming
conventions, event schema, and overhead guarantees.
"""

from .events import Event, EventLog
from .metrics import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry
from .naming import EVENT_KINDS, SPAN_NAMES
from .spans import (
    OpSpan,
    TraceContext,
    TrialRef,
    active_trace,
    bind_trace,
    current_op,
    current_trace_id,
    emit_event,
    format_traceparent,
    parse_traceparent,
    span,
    trial_scope,
)
from .tracing import SessionTrace
from .export import chrome_trace, export_chrome_trace
from .callback import TelemetryCallback

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "EVENT_KINDS",
    "Event",
    "EventLog",
    "SPAN_NAMES",
    "Histogram",
    "MetricsRegistry",
    "OpSpan",
    "SessionTrace",
    "TelemetryCallback",
    "TraceContext",
    "TrialRef",
    "active_trace",
    "bind_trace",
    "chrome_trace",
    "current_op",
    "current_trace_id",
    "emit_event",
    "export_chrome_trace",
    "format_traceparent",
    "parse_traceparent",
    "span",
    "trial_scope",
]
