"""The documented span/event naming registry.

Telemetry only composes across the stack when every layer agrees on what
operations are called: the trace analyzer groups by span name, dashboards
aggregate ``executor.attempt`` timings across services, and the replay
tooling keys provenance off event kinds. A typo'd span name silently
creates a new series instead of extending an existing one — so the set of
legal names is *closed* and enforced statically by
``repro.staticcheck.astlint`` (rule ``AST401``): every string literal
passed to :func:`repro.telemetry.spans.span` or
:func:`~repro.telemetry.spans.emit_event` must appear here.

Adding an instrumentation point is a two-line change: add the name below
(keep the ``<subsystem>.<operation>`` shape, lowercase, dot-separated) and
document it in ``docs/static-analysis.md``'s naming table.
"""

from __future__ import annotations

__all__ = ["SPAN_NAMES", "TRIAL_SPAN", "EVENT_KINDS"]

#: Name of the root span of one trial (or online step); recorded by
#: :meth:`repro.telemetry.tracing.SessionTrace.record_trial`.
TRIAL_SPAN = "session.trial"

#: Operation-span names (``with span(name): ...``), one per instrumented
#: operation. Grouping key for the trace analyzer and latency histograms.
SPAN_NAMES: frozenset[str] = frozenset(
    {
        # session / optimizer layer
        TRIAL_SPAN,               # root of one trial: outcome, retries, cost, phase seconds
        "optimizer.suggest",      # one suggest() call (any optimizer)
        "surrogate.fit",          # surrogate model (re)fit
        "acquisition.optimize",   # acquisition search over candidates
        "gp.hyperopt",            # GP hyperparameter optimization (NLL minimisation)
        # execution layer
        "executor.run",           # whole attempt loop of one trial
        "executor.attempt",       # a single evaluation attempt
        "executor.backoff",       # retry backoff sleep
        # benchmarking / online layer
        "benchmark.measure",      # one benchmark measurement (incl. warmup)
        "policy.propose",         # online policy proposing a config
        "system.run",             # simulated system executing a workload
        # service wire (distributed tracing)
        "service.request",        # client-side HTTP call (route, status, retry)
        "http.request",           # server-side request handling (route, status)
        # provenance / replay
        "session.replay",         # one repro replay pass over a journaled session
    }
)

#: Structured event kinds (``emit_event(kind, ...)``): the names of the
#: zero-length spans that carry a ``severity`` attribute, each counted as
#: ``events.<kind>``.
EVENT_KINDS: frozenset[str] = frozenset(
    {
        "executor.timeout",
        "executor.retry",
        "guardrail.violation",
        "agent.crash",
        "agent.rollback",
        "surrogate.jitter_escalation",
        "workload.shift",
        "replay.divergence",      # first point where a replayed session departs the journal
        # robustness / chaos engineering
        "chaos.fault",            # an injected fault fired (site, key, index, kind)
        "optimizer.degraded",     # surrogate fit failed/slow; suggestion degraded to random
        "store.spill",            # transient store failure: trial held in the spill buffer
        "store.spill_flush",      # spilled trials flushed to durable storage
        "breaker.state_change",   # circuit breaker closed/open/half_open transition
        "service.overload",       # admission control shed a request (429/503)
        "service.drain",          # server entered graceful drain
    }
)
