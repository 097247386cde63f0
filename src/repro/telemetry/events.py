"""Structured event log: severities, attributes, bounded ring buffer.

Spans answer "where did the time go"; events answer "what noteworthy
things happened" — retries, timeouts, safety-guardrail trips, GP jitter
escalations, workload-shift alarms. Each :class:`Event` carries a machine
``kind`` (dotted, e.g. ``executor.retry``), a severity, dual timestamps
(epoch + monotonic), an optional trial binding, and free-form attributes.

The log is a fixed-size ring buffer (:class:`collections.deque` with
``maxlen``): a pathological run that times out every trial cannot grow
memory without bound — old events are dropped and counted, never errors.

Event kinds emitted by the library today:

================================  =========  ===================================
kind                              severity   emitted by
================================  =========  ===================================
``executor.retry``                warning    retry with backoff scheduled
``executor.timeout``              warning    trial hit its wall-clock deadline
``guardrail.violation``           warning    online guardrail flagged regression
``agent.rollback``                warning    agent restored last safe config
``agent.crash``                   error      online step crashed the system
``surrogate.jitter_escalation``   warning    GP Cholesky needed extra jitter
``workload.shift``                warning    shift detector fired an alarm
================================  =========  ===================================
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .spans import TrialRef

__all__ = ["Event", "EventLog", "SEVERITIES"]

SEVERITIES = ("debug", "info", "warning", "error")


class Event:
    """One structured occurrence; timestamps on both clocks."""

    __slots__ = ("kind", "severity", "message", "ts", "t_s", "attributes", "ref")

    def __init__(
        self,
        kind: str,
        severity: str = "info",
        message: str = "",
        ref: "TrialRef | None" = None,
        attributes: dict[str, Any] | None = None,
    ) -> None:
        if severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}, got {severity!r}")
        self.kind = kind
        self.severity = severity
        self.message = message
        self.ts = time.time()  # epoch — survives export across machines
        self.t_s = time.monotonic()  # monotonic — orders within the trace
        self.attributes = attributes if attributes is not None else {}
        self.ref = ref

    @property
    def trial_id(self) -> int | None:
        return self.ref.trial_id if self.ref is not None else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "ts": self.ts,
            "t_s": self.t_s,
            "trial_id": self.trial_id,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Event({self.kind!r}, severity={self.severity!r}, trial={self.trial_id})"


class EventLog:
    """Thread-safe bounded ring buffer of :class:`Event`.

    Parameters
    ----------
    maxlen:
        Buffer capacity; the oldest events are dropped once exceeded
        (``emitted - len(log)`` of them).
    """

    def __init__(self, maxlen: int = 4096) -> None:
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self.maxlen = int(maxlen)
        self._events: deque[Event] = deque(maxlen=self.maxlen)
        self._lock = threading.Lock()
        self.emitted = 0

    def emit(
        self,
        kind: str,
        severity: str = "info",
        message: str = "",
        ref: "TrialRef | None" = None,
        **attributes: Any,
    ) -> Event:
        event = Event(kind, severity=severity, message=message, ref=ref, attributes=attributes)
        with self._lock:
            self._events.append(event)
            self.emitted += 1
        return event

    def __len__(self) -> int:
        return len(self._events)

    def snapshot(self) -> list[Event]:
        with self._lock:
            return list(self._events)

    def to_dicts(self) -> list[dict[str, Any]]:
        return [e.to_dict() for e in self.snapshot()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventLog(n={len(self)}, emitted={self.emitted}, maxlen={self.maxlen})"
