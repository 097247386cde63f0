"""Tuning-run observability: spans, metrics, JSON export.

Taming noisy cloud trials (TUNA) and tuning the tuner itself both start
from the same prerequisite: *knowing what happened inside every trial*.
This module gives tuning runs a lightweight, dependency-free trace model
in the OpenTelemetry spirit:

* one span class, :class:`~repro.telemetry.spans.OpSpan`. Operation spans
  (``optimizer.suggest``, ``surrogate.fit``, ``acquisition.optimize``,
  ``executor.run``/``executor.attempt``, ``benchmark.measure`` …) say
  where the time went; a trial (or online step) is the *root* of its
  spans — an ``OpSpan`` named ``session.trial`` whose attributes carry how
  it ended (``success`` / ``crash`` / ``abort`` / ``censored`` /
  ``timeout``), its retries, cost, and suggest/evaluate/queue seconds; a
  structured event (``executor.retry``, ``store.spill`` …) is a zero-length
  span marked by a ``severity`` attribute, in the same tree;
* :class:`SessionTrace` — a bounded ring of those spans + a
  :class:`~repro.telemetry.metrics.MetricsRegistry` (counters, gauges,
  latency histograms with p50/p95/p99), exportable as JSON for the
  ``repro trace`` analyzer or as Chrome trace-event JSON
  (:mod:`repro.telemetry.export`) for Perfetto.

Not to be confused with :mod:`repro.sysim.telemetry`, which generates the
*system* utilisation time series that workload identification embeds; this
module observes the *tuner*.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, deque
from typing import Any, Sequence

from . import spans as _spans
from .metrics import MetricsRegistry
from .naming import TRIAL_SPAN
from .spans import EVENT_MARK, OpSpan, TrialRef

__all__ = ["SessionTrace", "TRACE_SCHEMA"]

#: Layout version of :meth:`SessionTrace.to_dict`; ``load_trace`` refuses
#: files that carry another (or none). 3 = one flat ``spans`` list linked
#: by ``parent_id``, trials being the spans named ``session.trial`` and
#: events the spans with a ``severity`` attribute (2 had an ``events`` list).
TRACE_SCHEMA = 3


def _outcome_counts(roots: list[OpSpan]) -> dict[str, int]:
    return dict(Counter(root.attributes.get("outcome", "unknown") for root in roots))


class _Activation:
    """Context manager behind :meth:`SessionTrace.activated`."""

    __slots__ = ("_trace", "_token", "_trace_binding")

    def __init__(self, trace: "SessionTrace") -> None:
        self._trace = trace

    def __enter__(self) -> "SessionTrace":
        self._token = _spans.activate(self._trace)
        if _spans.current_trace_context() is None:
            self._trace_binding = _spans.bind_trace(self._trace.trace_id)
            self._trace_binding.__enter__()
        else:
            self._trace_binding = None
        return self._trace

    def __exit__(self, *exc_info: object) -> bool:
        if self._trace_binding is not None:
            self._trace_binding.__exit__(*exc_info)
        _spans.deactivate(self._token)
        return False


class SessionTrace:
    """Spans + metrics for one tuning run.

    Spans of every kind land in :attr:`ops`, a ring that keeps the newest
    ``max_ops`` (a long-lived server keeps recording; what fell off is
    counted in :attr:`ops_dropped`). Counters, gauges and latency
    histograms live on :attr:`metrics`. Operation spans and structured
    events (zero-length spans) arrive through the context-variable
    machinery in :mod:`repro.telemetry.spans` while the trace is
    :meth:`activated`; :meth:`record_trial` closes a trial by adding its
    root span. Until then the trial's parent-less spans are also filed
    under its :class:`~repro.telemetry.spans.TrialRef`, so closing a trial
    touches its own spans and never scans the ring.
    """

    def __init__(
        self,
        name: str = "tuning-session",
        max_ops: int = 100_000,
    ) -> None:
        self.name = name
        self.started_s = time.monotonic()
        self.started_at = time.time()  # wall-clock epoch
        #: Distributed trace id (W3C shape). Spans recorded while this trace
        #: is active default to it unless an inbound context is already
        #: bound — the server binds the client's ``traceparent`` first, so
        #: cross-process spans stitch under the *caller's* id.
        self.trace_id = _spans.new_trace_id()
        self.metrics = MetricsRegistry()
        self.max_ops = int(max_ops)
        self.ops: deque[OpSpan] = deque(maxlen=self.max_ops)
        self.ops_recorded = 0
        # Parent-less spans of trials not yet closed, each with its position
        # in the recording order. At most ``max_ops`` trials: more cannot all
        # still have a span in the ring, and the oldest-opened goes first.
        self._unadopted: dict[TrialRef, list[tuple[int, OpSpan]]] = {}
        self._lock = threading.Lock()

    # -- activation ----------------------------------------------------------
    def activated(self):
        """Context manager making this trace the ambient span/event sink.

        Also binds the trace's ``trace_id`` as the distributed trace
        context — unless one is already bound (an inbound ``traceparent``
        takes precedence so propagated traces stitch).
        """
        return _Activation(self)

    # -- recording ----------------------------------------------------------
    def record_op(self, op: OpSpan) -> None:
        """Sink for :func:`~repro.telemetry.spans.span` and
        :func:`~repro.telemetry.spans.emit_event` (newest ``max_ops`` kept);
        an event is counted as ``events.<kind>``."""
        if EVENT_MARK in op.attributes:
            self.metrics.inc(f"events.{op.name}")
        self.record_ops((op,))

    def record_ops(self, ops: Sequence[OpSpan]) -> None:
        """Append finished spans in one locked step (a server's kept request tree)."""
        with self._lock:
            seq = self.ops_recorded
            for op in ops:
                if op.parent_id is None and op.ref is not None:
                    pending = self._unadopted.get(op.ref)
                    if pending is None:
                        if len(self._unadopted) >= self.max_ops:
                            del self._unadopted[next(iter(self._unadopted))]
                        pending = self._unadopted[op.ref] = []
                    pending.append((seq, op))
                seq += 1
            self.ops.extend(ops)
            self.ops_recorded = seq

    def record_trial(
        self,
        trial_id: int,
        duration_s: float,
        attributes: dict[str, Any],
        status: str = "ok",
        error: str | None = None,
    ) -> OpSpan:
        """Close trial ``trial_id``: record its root span and return it.

        The root is an :class:`OpSpan` named ``session.trial`` ending now.
        The trial's parent-less spans become its children, and when there
        are any the window is tightened to them (same monotonic clock), so
        the root brackets its children and their durations sum to at most
        its own; otherwise (process pools contribute no spans) the window
        is the ``duration_s`` the caller measured.
        """
        ref = TrialRef()
        ref.trial_id = trial_id
        root = OpSpan(TRIAL_SPAN, parent_id=None, ref=ref, attributes=attributes)
        root.status = status
        root.error = error
        now = root.t0
        root.t0 = now - duration_s
        with self._lock:
            in_ring = self.ops_recorded - len(self.ops)  # position of the oldest span held
            refs = [ref for ref in self._unadopted if ref.trial_id == trial_id]
            children = [op for ref in refs for seq, op in self._unadopted.pop(ref) if seq >= in_ring]
            if children:
                root.t0 = min(root.t0, min(op.t0 for op in children))
                root.t1 = max(op.t1 for op in children)
            root.wall0 -= now - root.t0
            for op in children:
                op.parent_id = root.span_id
            self.ops.append(root)
            self.ops_recorded += 1
        return root

    # -- reading ------------------------------------------------------------
    @property
    def ops_dropped(self) -> int:
        return self.ops_recorded - len(self.ops)

    def trial_spans(self) -> list[OpSpan]:
        """The trial roots (``session.trial`` spans) still in the ring."""
        with self._lock:
            return [op for op in self.ops if op.name == TRIAL_SPAN]

    def outcome_counts(self) -> dict[str, int]:
        return _outcome_counts(self.trial_spans())

    def summary(self) -> dict[str, Any]:
        """One-line-able digest: trial count, best value, tail latencies."""
        with self._lock:
            ops = list(self.ops)
        roots = [op for op in ops if op.name == TRIAL_SPAN]
        return {
            "trials": len(roots),
            "best_value": self.metrics.gauges.get("best.value"),
            "p95_trial_s": self.metrics.quantile("trial.seconds", 0.95),
            "p95_suggest_s": self.metrics.quantile("suggest.seconds", 0.95),
            "outcomes": _outcome_counts(roots),
            "events": sum(EVENT_MARK in op.attributes for op in ops),
        }

    # -- export -------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            ops = list(self.ops)
        roots = [op for op in ops if op.name == TRIAL_SPAN]
        return {
            "schema": TRACE_SCHEMA,
            "name": self.name,
            "trace_id": self.trace_id,
            "started_s": self.started_s,
            "started_at": self.started_at,
            "elapsed_s": time.monotonic() - self.started_s,
            "n_trials": len(roots),
            "n_spans": len(ops),
            "ops_dropped": self.ops_recorded - len(ops),
            "outcomes": _outcome_counts(roots),
            "counters": self.metrics.counters,
            "gauges": self.metrics.gauges,
            "metrics": self.metrics.to_dict(),
            "spans": [op.to_dict() for op in ops],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False, default=str)

    def export(self, path: str) -> None:
        """Write the trace as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=2))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SessionTrace({self.name!r}, n_ops={len(self.ops)})"
