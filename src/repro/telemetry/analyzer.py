"""Offline trace analysis — the engine behind ``repro trace <file>``.

Loads a trace exported by :class:`~repro.telemetry.tracing.SessionTrace`
(or a ``repro compare`` bundle of several) and answers the questions an
operator actually asks of a finished run:

* **Where did the time go?** Per-phase latency breakdown aggregated over
  every operation span (count, total, mean, p95, max, share of the summed
  operation time).
* **Which trials hurt?** The slowest trials (``session.trial`` roots) with
  their outcome, retries, and dominant phase (longest direct child).
* **How did trials end?** Outcome × count table with example errors, plus
  the structured events rolled up by kind/severity.

Everything here works on plain dicts (the exported JSON: one flat
``spans`` list linked by ``parent_id``; an event is a zero-length span
with a ``severity`` attribute, and is no phase), so the analyzer never
needs the process that produced the trace. A span whose parent fell off
the trace's ring simply has no parent in the file and is read as a root.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from ..exceptions import ReproError
from .naming import TRIAL_SPAN
from .spans import EVENT_MARK, SEVERITIES
from .tracing import TRACE_SCHEMA

__all__ = [
    "load_trace",
    "trace_runs",
    "phase_stats",
    "slowest_trials",
    "outcome_table",
    "event_summary",
    "format_report",
]


def load_trace(path: str) -> dict[str, Any]:
    """Load a trace JSON file (single trace or a ``compare`` bundle).

    Raises :class:`ReproError` unless every trace in it carries the
    current ``schema`` number — another layout would read as an empty run.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    for label, trace in trace_runs(data):
        if trace.get("schema") != TRACE_SCHEMA:
            raise ReproError(
                f"{path}: trace {label!r} has schema {trace.get('schema')!r}, "
                f"this version reads schema {TRACE_SCHEMA}; export it again"
            )
    return data


def trace_runs(data: Mapping[str, Any]) -> list[tuple[str, Mapping[str, Any]]]:
    """Normalise to ``[(label, trace_dict)]`` — handles compare bundles."""
    if "runs" in data and "spans" not in data:
        return [
            (f"{run.get('optimizer', run.get('label', 'run'))}/seed{run.get('seed', '?')}", run["trace"])
            for run in data["runs"]
        ]
    return [(str(data.get("name", "trace")), data)]


def _trial_roots(trace: Mapping[str, Any]) -> list[Mapping[str, Any]]:
    return [sp for sp in trace.get("spans", ()) if sp["name"] == TRIAL_SPAN]


def _is_event(sp: Mapping[str, Any]) -> bool:
    return EVENT_MARK in (sp.get("attributes") or {})


def _events(trace: Mapping[str, Any]) -> list[Mapping[str, Any]]:
    return [sp for sp in trace.get("spans", ()) if _is_event(sp)]


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


def phase_stats(trace: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Aggregate operation spans by name; sorted by total time, descending.

    Trial roots (``session.trial``) and events are not phases and are left out.
    """
    groups: dict[str, list[float]] = {}
    errors: dict[str, int] = {}
    for op in trace.get("spans", ()):
        if op["name"] == TRIAL_SPAN or _is_event(op):
            continue
        groups.setdefault(op["name"], []).append(float(op.get("duration_s", 0.0)))
        if op.get("status") == "error":
            errors[op["name"]] = errors.get(op["name"], 0) + 1
    total_all = sum(sum(v) for v in groups.values()) or 1.0
    rows = []
    for name, durations in groups.items():
        total = sum(durations)
        rows.append({
            "phase": name,
            "count": len(durations),
            "total_s": total,
            "mean_s": total / len(durations),
            "p95_s": _percentile(durations, 0.95),
            "max_s": max(durations),
            "share": total / total_all,
            "errors": errors.get(name, 0),
        })
    rows.sort(key=lambda r: r["total_s"], reverse=True)
    return rows


def slowest_trials(trace: Mapping[str, Any], n: int = 5) -> list[dict[str, Any]]:
    """The ``n`` slowest trials with their dominant phase."""
    children: dict[int, list[Mapping[str, Any]]] = {}
    for sp in trace.get("spans", ()):
        if sp.get("parent_id") is not None and not _is_event(sp):
            children.setdefault(sp["parent_id"], []).append(sp)
    rows = []
    for root in _trial_roots(trace):
        attrs = root.get("attributes") or {}
        dominant = max(
            children.get(root["span_id"], ()), key=lambda op: op.get("duration_s", 0.0), default=None
        )
        rows.append({
            "trial_id": root.get("trial_id"),
            "duration_s": float(root.get("duration_s", 0.0)),
            "queue_s": float(attrs.get("queue_s", 0.0)),
            "outcome": attrs.get("outcome"),
            "retries": attrs.get("retries", 0),
            "dominant_phase": dominant["name"] if dominant else "-",
            "error": root.get("error"),
        })
    rows.sort(key=lambda r: r["duration_s"], reverse=True)
    return rows[:n]


def outcome_table(trace: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Outcome → count, total retries, and one example error message."""
    groups: dict[str, dict[str, Any]] = {}
    for root in _trial_roots(trace):
        attrs = root.get("attributes") or {}
        outcome = attrs.get("outcome", "unknown")
        row = groups.setdefault(outcome, {"outcome": outcome, "count": 0, "retries": 0, "example_error": None})
        row["count"] += 1
        row["retries"] += int(attrs.get("retries", 0) or 0)
        if row["example_error"] is None and root.get("error"):
            row["example_error"] = str(root["error"])
    return sorted(groups.values(), key=lambda r: r["count"], reverse=True)


def event_summary(trace: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Event kind → count and worst severity."""
    groups: dict[str, dict[str, Any]] = {}
    for event in _events(trace):
        kind, severity = event["name"], event["attributes"][EVENT_MARK]
        row = groups.setdefault(kind, {"kind": kind, "count": 0, "severity": "debug"})
        row["count"] += 1
        if SEVERITIES.index(severity) > SEVERITIES.index(row["severity"]):
            row["severity"] = severity
    return sorted(groups.values(), key=lambda r: r["count"], reverse=True)


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1e3:.2f}ms"


def _table(headers: list[str], rows: Iterable[tuple], title: str) -> str:
    # Deferred import: the analyzer must stay loadable from a bare trace
    # file context, but reuses the repo's table formatter when available.
    from ..analysis.reporting import format_table

    return format_table(headers, list(rows), title=title)


def format_report(data: Mapping[str, Any], top: int = 5, show_events: bool = False) -> str:
    """Human-readable report for one trace or a compare bundle."""
    sections: list[str] = []
    for label, trace in trace_runs(data):
        events = _events(trace)
        header = (
            f"trace {label!r}: {trace['n_trials']} trials, "
            f"{trace['n_spans']} spans, {len(events)} events, "
            f"elapsed {float(trace.get('elapsed_s', 0.0)):.3f}s"
        )
        sections.append(header)

        phases = phase_stats(trace)
        if phases:
            sections.append(_table(
                ["phase", "count", "total", "mean", "p95", "max", "share", "errors"],
                [
                    (r["phase"], r["count"], _fmt_s(r["total_s"]), _fmt_s(r["mean_s"]),
                     _fmt_s(r["p95_s"]), _fmt_s(r["max_s"]), f"{r['share'] * 100:.1f}%", r["errors"])
                    for r in phases
                ],
                title="per-phase latency breakdown",
            ))

        slow = slowest_trials(trace, n=top)
        if slow:
            sections.append(_table(
                ["trial", "duration", "queue", "outcome", "retries", "dominant phase", "error"],
                [
                    (r["trial_id"], _fmt_s(r["duration_s"]), _fmt_s(r["queue_s"]), r["outcome"],
                     r["retries"], r["dominant_phase"], (r["error"] or "")[:40])
                    for r in slow
                ],
                title=f"slowest {len(slow)} trials",
            ))

        outcomes = outcome_table(trace)
        if outcomes:
            sections.append(_table(
                ["outcome", "count", "retries", "example error"],
                [(r["outcome"], r["count"], r["retries"], (r["example_error"] or "")[:48]) for r in outcomes],
                title="trial outcomes",
            ))

        kinds = event_summary(trace)
        if kinds:
            sections.append(_table(
                ["event kind", "count", "worst severity"],
                [(r["kind"], r["count"], r["severity"]) for r in kinds],
                title="structured events",
            ))
        if show_events and events:
            lines = ["event log:"]
            for e in sorted(events, key=lambda e: e["t0_s"]):
                attrs = dict(e["attributes"])
                severity, message = attrs.pop(EVENT_MARK), attrs.pop("message", "")
                fields = " ".join(f"{k}={v}" for k, v in attrs.items())
                trial = f" trial={e['trial_id']}" if e.get("trial_id") is not None else ""
                lines.append(f"  [{severity:7s}] {e['name']}{trial} {message} {fields}".rstrip())
            sections.append("\n".join(lines))
    return "\n\n".join(sections)
