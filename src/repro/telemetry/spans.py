"""Hierarchical spans over ``contextvars`` — the tracing core.

Knowing *that* a trial took 1.2 s is not enough; was it surrogate
fitting, acquisition maximisation, executor queue wait, or the workload
run? :class:`OpSpan` is the one span class that answers both: a trial is
the root span (``session.trial``, recorded by
:meth:`~repro.telemetry.tracing.SessionTrace.record_trial`), and below it
sit lightweight *operation spans*, opened anywhere in the stack with::

    with span("surrogate.fit", n_observations=40):
        model.fit(X, y)

and recorded into whichever :class:`~repro.telemetry.tracing.SessionTrace`
is *active* in the current context. Three context variables carry the
state:

* the **active trace** — set by :meth:`SessionTrace.activated` (the
  :class:`~repro.telemetry.TelemetryCallback` does this for sessions, an
  online agent's run included). With no active trace, :func:`span`,
  :func:`trial_scope`, and :func:`emit_event` are strict no-ops: one
  ``ContextVar.get`` plus a ``None`` check, no allocation — cheap enough
  to leave the instrumentation permanently in hot paths.
* the **current parent span** — nested ``span()`` blocks form a tree via
  ``parent_id``; exceptions propagate but the span is always closed (with
  ``status="error"``), so no orphans survive a crash.
* the **trial reference** — a tiny mutable cell opened by
  :func:`trial_scope` around everything belonging to one trial. Its
  ``trial_id`` starts unknown (executors run before the optimizer assigns
  ids) and is bound once the trial is observed; every span recorded inside
  the scope resolves through it at export time.

A structured event (:func:`emit_event`) is one more span: zero-length,
named by its kind, marked by a ``severity`` attribute.

Thread-safety: :class:`~repro.execution.ThreadedExecutor` copies the
submitting context into each worker task (``contextvars.copy_context``),
so spans opened inside a worker attach to the right trial even though
pool threads are reused across trials. Process pools cross a pickle
boundary — spans opened in child processes are silently dropped (the
context variables are unset there), which leaves that trial's root
without children rather than corrupting the tree.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
import uuid
from contextvars import ContextVar
from typing import Any, Protocol

__all__ = [
    "OpSpan",
    "TrialRef",
    "TraceContext",
    "span",
    "trial_scope",
    "emit_event",
    "EVENT_MARK",
    "SEVERITIES",
    "activate",
    "deactivate",
    "active_trace",
    "current_op",
    "current_trial_ref",
    "bind_trace",
    "current_trace_id",
    "current_trace_context",
    "new_trace_id",
    "new_span_id",
    "format_traceparent",
    "parse_traceparent",
]

_ids = itertools.count(1)


#: Event severities, least to most severe.
SEVERITIES = ("debug", "info", "warning", "error")

#: The attribute that makes a span an event: :func:`emit_event` alone sets it.
EVENT_MARK = "severity"


class SpanSink(Protocol):  # pragma: no cover - typing only
    """What :func:`span`/:func:`emit_event` need from an active trace."""

    def record_op(self, op: "OpSpan") -> None: ...


_ACTIVE: ContextVar[SpanSink | None] = ContextVar("repro_active_trace", default=None)
_PARENT: ContextVar["OpSpan | None"] = ContextVar("repro_current_span", default=None)
_TRIAL: ContextVar["TrialRef | None"] = ContextVar("repro_trial_ref", default=None)
_TRACE_CTX: ContextVar["TraceContext | None"] = ContextVar("repro_trace_ctx", default=None)


# -- distributed trace context (W3C traceparent) ------------------------------

_TRACEPARENT_RE = re.compile(r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")


class TraceContext:
    """The distributed identity of the current request/session.

    ``trace_id`` names the whole end-to-end trace (shared by the client
    driving a session and every server handler it touches); ``span_id``
    names the hop that propagated it. Both follow the W3C Trace Context
    sizes (16 / 8 bytes, lowercase hex) so they serialise straight into a
    ``traceparent`` header.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str | None = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id if span_id is not None else new_span_id()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TraceContext(trace_id={self.trace_id!r}, span_id={self.span_id!r})"


def new_trace_id() -> str:
    """A fresh 32-hex-char (16-byte) trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-char (8-byte) propagation span id."""
    return uuid.uuid4().hex[:16]


def format_traceparent(trace_id: str) -> str:
    """Render a W3C ``traceparent`` header value (version 00, sampled) under a fresh span id."""
    return f"00-{trace_id}-{new_span_id()}-01"


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a ``traceparent`` header; ``None`` on anything malformed.

    Strict on shape (version ``00``-``fe``, 32+16 lowercase hex, non-zero
    ids) and deliberately forgiving on failure: a bad header degrades to
    "start a new trace", never to an error — propagation is advisory.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    version, trace_id, span_id, _flags = match.groups()
    if version == "ff" or set(trace_id) == {"0"} or set(span_id) == {"0"}:
        return None
    return TraceContext(trace_id, span_id)


class _TraceBinding:
    """Context manager installing a :class:`TraceContext` for the block."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: "TraceContext") -> None:
        self._ctx = ctx

    def __enter__(self) -> TraceContext:
        self._token = _TRACE_CTX.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc_info: object) -> bool:
        _TRACE_CTX.reset(self._token)
        return False


def bind_trace(context: "TraceContext | str") -> _TraceBinding:
    """Bind a trace context (or bare trace id) for the enclosed block.

    Spans opened inside carry its ``trace_id``; the server binds the
    inbound ``traceparent`` here so handler spans stitch into the caller's
    trace.
    """
    if isinstance(context, str):
        context = TraceContext(context)
    return _TraceBinding(context)


def current_trace_context() -> TraceContext | None:
    """The bound distributed trace context, if any."""
    return _TRACE_CTX.get()


def current_trace_id() -> str | None:
    """The bound distributed trace id, if any (for provenance / errors)."""
    ctx = _TRACE_CTX.get()
    return ctx.trace_id if ctx is not None else None


class TrialRef:
    """Mutable trial-id cell shared by every span/event of one trial.

    Created before the trial id exists (executors see configurations, not
    trials); the session binds ``trial_id`` when the optimizer records the
    trial, and exports resolve through the reference afterwards.
    """

    __slots__ = ("trial_id",)

    def __init__(self) -> None:
        self.trial_id: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrialRef(trial_id={self.trial_id})"


class OpSpan:
    """One timed operation: name, tree linkage, clocks, and attributes.

    Times are dual-recorded: ``t0``/``t1`` on the monotonic clock (for
    durations and intra-trace ordering) and ``wall0`` on the epoch clock
    (so exported traces remain meaningful across sessions and machines).
    """

    __slots__ = ("name", "span_id", "parent_id", "trace_id", "t0", "t1", "wall0", "status", "error", "thread", "attributes", "ref")

    def __init__(self, name: str, parent_id: int | None, ref: TrialRef | None, attributes: dict[str, Any]) -> None:
        self.name = name
        self.span_id = next(_ids)
        self.parent_id = parent_id
        ctx = _TRACE_CTX.get()
        self.trace_id = ctx.trace_id if ctx is not None else None
        self.t0 = time.monotonic()
        self.t1 = self.t0
        self.wall0 = time.time()
        self.status = "ok"
        self.error: str | None = None
        self.thread = threading.current_thread().name
        self.attributes = attributes
        self.ref = ref

    @property
    def trial_id(self) -> int | None:
        return self.ref.trial_id if self.ref is not None else None

    @property
    def duration_s(self) -> float:
        return max(0.0, self.t1 - self.t0)

    def set(self, **attrs: Any) -> "OpSpan":
        """Attach attributes to a live span; chainable."""
        self.attributes.update(attrs)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "trial_id": self.trial_id,
            "t0_s": self.t0,
            "started_at": self.wall0,
            "duration_s": self.duration_s,
            "status": self.status,
            "error": self.error,
            "thread": self.thread,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OpSpan({self.name!r}, id={self.span_id}, parent={self.parent_id}, trial={self.trial_id})"


class _NullSpan:
    """Shared no-op context manager — the disabled-telemetry fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager recording one :class:`OpSpan` into the active trace."""

    __slots__ = ("_sink", "_name", "_attrs", "_op", "_token")

    def __init__(self, sink: SpanSink, name: str, attrs: dict[str, Any]) -> None:
        self._sink = sink
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> OpSpan:
        parent = _PARENT.get()
        op = OpSpan(
            self._name,
            parent_id=parent.span_id if parent is not None else None,
            ref=_TRIAL.get(),
            attributes=self._attrs,
        )
        self._op = op
        self._token = _PARENT.set(op)
        return op

    def __exit__(self, exc_type, exc, tb) -> bool:
        _PARENT.reset(self._token)
        op = self._op
        op.t1 = time.monotonic()
        if exc_type is not None:
            op.status = "error"
            op.error = f"{exc_type.__name__}: {exc}"
        self._sink.record_op(op)
        return False


def span(name: str, **attributes: Any):
    """Open a timed operation span; no-op when no trace is active.

    Yields the live :class:`OpSpan` (or ``None`` when inactive), so call
    sites can attach late attributes with ``op.set(...)`` guarded by
    ``if op is not None``.
    """
    sink = _ACTIVE.get()
    if sink is None:
        return _NULL_SPAN
    return _LiveSpan(sink, name, attributes)


class _NullScope:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class _TrialScope:
    """Establishes (or joins) the trial reference for the current context."""

    __slots__ = ("_ref", "_token")

    def __enter__(self) -> TrialRef:
        current = _TRIAL.get()
        if current is not None:
            # Join the enclosing trial (e.g. the session opened the scope
            # around suggest + dispatch for a batch of one).
            self._ref = current
            self._token = None
        else:
            self._ref = TrialRef()
            self._token = _TRIAL.set(self._ref)
        return self._ref

    def __exit__(self, *exc_info: object) -> bool:
        if self._token is not None:
            _TRIAL.reset(self._token)
        return False


def trial_scope():
    """Scope spans/events to one trial; joins an enclosing scope if present.

    No-op (yields ``None``) when no trace is active.
    """
    if _ACTIVE.get() is None:
        return _NULL_SCOPE
    return _TrialScope()


def emit_event(kind: str, severity: str = "info", message: str = "", **attributes: Any) -> None:
    """Record a structured event: a zero-length span named ``kind``.

    Strict no-op when no trace is active. Like any span, the event's
    parent is the innermost open span, and it carries the current trial
    reference and the bound trace id. Its attributes are ``severity`` (the
    :data:`EVENT_MARK` readers tell events by), ``message`` and the
    caller's own; the sink counts it as ``events.<kind>``.
    """
    sink = _ACTIVE.get()
    if sink is None:
        return
    if severity not in SEVERITIES:
        raise ValueError(f"severity must be one of {SEVERITIES}, got {severity!r}")
    parent = _PARENT.get()
    attributes = {EVENT_MARK: severity, "message": message, **attributes}
    sink.record_op(OpSpan(kind, parent.span_id if parent is not None else None, _TRIAL.get(), attributes))


# -- activation ---------------------------------------------------------------

def activate(trace: SpanSink):
    """Make ``trace`` the span/event sink for the current context.

    Returns a token for :func:`deactivate`. Prefer the managed form
    :meth:`SessionTrace.activated`.
    """
    return _ACTIVE.set(trace)


def deactivate(token=None) -> None:
    """Undo :func:`activate` (with its token) or force-clear the sink."""
    if token is not None:
        _ACTIVE.reset(token)
    else:
        _ACTIVE.set(None)


def active_trace() -> SpanSink | None:
    """The trace currently receiving spans/events, if any."""
    return _ACTIVE.get()


def current_op() -> OpSpan | None:
    """The innermost open span in this context, if any."""
    return _PARENT.get()


def current_trial_ref() -> TrialRef | None:
    """The trial reference of the enclosing :func:`trial_scope`, if any."""
    return _TRIAL.get()
