"""Tuner observability: hierarchical spans, metrics, events, trace analysis.

Layers:

* :mod:`~repro.telemetry.spans` — :class:`OpSpan`, the one span class,
  opened through contextvar-backed ``span`` / ``trial_scope`` /
  ``emit_event`` (an event is a zero-length span) with a strict no-op
  fast path when no trace is active;
* :mod:`~repro.telemetry.metrics` — counters/gauges/latency histograms
  with JSON and Prometheus exposition;
* :mod:`~repro.telemetry.tracing` — :class:`SessionTrace`: the span ring
  (a trial is a root span named ``session.trial``), metrics, and the
  schema-3 JSON export;
* :mod:`~repro.telemetry.export` — Chrome trace-event conversion (open in
  Perfetto);
* :mod:`~repro.telemetry.analyzer` — offline analysis for ``repro trace``;
* :mod:`~repro.telemetry.callback` — session wiring.

See ``docs/observability.md`` for the span hierarchy, metric naming
conventions, event schema, and overhead guarantees.
"""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use (see repro._lazy).
_EXPORTS = {
    "TelemetryCallback": ".callback",
    "chrome_trace": ".export",
    "export_chrome_trace": ".export",
    "DEFAULT_LATENCY_BUCKETS": ".metrics",
    "Histogram": ".metrics",
    "MetricsRegistry": ".metrics",
    "EVENT_KINDS": ".naming",
    "SPAN_NAMES": ".naming",
    "OpSpan": ".spans",
    "TraceContext": ".spans",
    "TrialRef": ".spans",
    "active_trace": ".spans",
    "bind_trace": ".spans",
    "current_op": ".spans",
    "current_trace_id": ".spans",
    "emit_event": ".spans",
    "format_traceparent": ".spans",
    "parse_traceparent": ".spans",
    "span": ".spans",
    "trial_scope": ".spans",
    "SessionTrace": ".tracing",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
