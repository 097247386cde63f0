"""Chrome trace-event export — open tuning runs in Perfetto / chrome://tracing.

Converts a :class:`~repro.telemetry.tracing.SessionTrace` (or its exported
JSON dict — the converter works offline on saved traces) into the Chrome
trace-event format: one complete (``ph="X"``) event per span (trial roots
in category ``trial``, everything else ``op``), an instant (``ph="i"``)
marker per structured event (a zero-length span with a ``severity``
attribute), and metadata records naming the tracks. Each trial gets its
own track (``tid`` = trial id + 1; spans with no trial share the session
track), so concurrent trials from a thread-pool executor render as
parallel lanes with their nested operations stacked inside. The viewer nests by time containment, so a
span whose parent fell off the trace's ring still renders — as a
top-level bar on its track.

Timestamps are microseconds relative to the session's wall-clock start
(``started_at``).
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .naming import TRIAL_SPAN
from .spans import EVENT_MARK

__all__ = ["chrome_trace", "export_chrome_trace"]

_SESSION_TID = 0


def _as_dict(trace: Any) -> Mapping[str, Any]:
    return trace.to_dict() if hasattr(trace, "to_dict") else trace


def chrome_trace(trace: Any) -> dict[str, Any]:
    """Build a Chrome trace-event dict from a trace (object or dict)."""
    data = _as_dict(trace)
    wall_base = float(data["started_at"])

    def us(wall: float) -> int:
        return max(0, int(round((wall - wall_base) * 1e6)))

    events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": _SESSION_TID,
         "args": {"name": f"repro {data.get('name', 'trace')}"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": _SESSION_TID,
         "args": {"name": "session"}},
    ]
    seen_tids = {_SESSION_TID}

    for sp in data.get("spans", ()):
        trial_id = sp.get("trial_id")
        tid = _SESSION_TID if trial_id is None else int(trial_id) + 1  # track per trial
        if tid not in seen_tids:
            seen_tids.add(tid)
            events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                           "args": {"name": f"trial {trial_id}"}})
        attrs = sp.get("attributes") or {}
        if EVENT_MARK in attrs:  # an event: an instant marker drawn across all tracks
            events.append({"name": sp["name"], "cat": "event", "ph": "i", "s": "g",
                           "pid": 1, "tid": tid, "ts": us(sp["started_at"]), "args": dict(attrs)})
            continue
        is_trial = sp["name"] == TRIAL_SPAN
        events.append({
            "name": f"trial[{trial_id}] {attrs.get('outcome', '')}".strip() if is_trial else sp["name"],
            "cat": "trial" if is_trial else "op",
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": us(sp["started_at"]),
            "dur": max(1, int(round(float(sp.get("duration_s", 0.0)) * 1e6))),
            "args": {
                "status": sp.get("status"),
                "thread": sp.get("thread"),
                "error": sp.get("error"),
                **attrs,
            },
        })

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def export_chrome_trace(trace: Any, path: str) -> None:
    """Write Chrome trace-event JSON to ``path`` (open in ui.perfetto.dev)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(trace), fh, indent=None, default=str)
