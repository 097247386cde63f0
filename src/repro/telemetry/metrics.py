"""Counters, gauges, and fixed-bucket latency histograms with exposition.

Replaces the ad-hoc ``dict`` counters/gauges that used to live on
:class:`~repro.telemetry.tracing.SessionTrace` with a proper
:class:`MetricsRegistry`:

* **counters** accumulate, **gauges** hold the latest value — unchanged
  semantics, now behind one thread-safe store;
* **histograms** use fixed upper-bound buckets (Prometheus ``le``
  semantics: a value lands in the first bucket whose bound is ≥ it) and
  estimate quantiles by linear interpolation inside the selected bucket —
  the standard fixed-bucket estimator, exact at bucket boundaries;
* two expositions: :meth:`MetricsRegistry.to_dict` (JSON) and
  :meth:`MetricsRegistry.to_prometheus` (text format, ``repro_``-prefixed
  and name-sanitised, with ``_bucket``/``_sum``/``_count`` series).

Naming convention: dotted lower-case paths, ``<subsystem>.<thing>`` for
counters/gauges (``trials.total``, ``surrogate.cholesky_ms``) and
``<what>.seconds`` for latency histograms (``trial.seconds``,
``suggest.seconds``, ``queue.seconds``).
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

__all__ = ["Histogram", "MetricsRegistry", "DEFAULT_LATENCY_BUCKETS"]

#: Upper bucket bounds (seconds) sized for tuner operations: sub-millisecond
#: span bookkeeping up to five-minute benchmark runs.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    return "repro_" + sanitized if not sanitized.startswith("repro_") else sanitized


def _prom_value(value: float) -> str:
    """A sample value that parses back to ``value`` exactly: a whole number
    in digits, any other float as ``repr``, infinities and NaN spelled the
    Prometheus way."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return str(int(value)) if value.is_integer() and abs(value) < 2**53 else repr(value)


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    Parameters
    ----------
    buckets:
        Strictly increasing finite upper bounds; an implicit ``+Inf``
        bucket is appended (so no observation is ever dropped).
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be non-empty and strictly increasing, got {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        # Prometheus `le` semantics: first bucket whose bound >= value.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 ≤ q ≤ 1) from the bucket counts.

        Linear interpolation inside the bucket containing the target rank;
        observations at a bucket boundary are counted in that bucket (``le``
        semantics), so a quantile falling exactly on accumulated boundary
        mass returns the boundary itself. The overflow bucket is clamped to
        the maximum observed value.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0.0
        lower = min(0.0, self.min)
        for i, c in enumerate(self.counts):
            upper = self.bounds[i] if i < len(self.bounds) else max(self.max, lower)
            if c and cumulative + c >= rank:
                fraction = max(0.0, (rank - cumulative) / c)
                return lower + (upper - lower) * fraction
            cumulative += c
            lower = upper
        return self.max

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same buckets) into this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": [[b, c] for b, c in zip(self.bounds, self.counts)] + [["+Inf", self.counts[-1]]],
        }


class MetricsRegistry:
    """Thread-safe store of counters, gauges, and histograms.

    All mutation goes through :meth:`inc`/:meth:`set_gauge`/:meth:`observe`;
    names are created on first use (no registration step), matching how the
    old ``SessionTrace`` dicts were used.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- recording ----------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + float(value)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(value)

    # -- reading ------------------------------------------------------------
    @property
    def counters(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counters)

    @property
    def gauges(self) -> dict[str, float]:
        with self._lock:
            return dict(self._gauges)

    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def histogram(self, name: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name)

    def quantile(self, name: str, q: float) -> float:
        hist = self.histogram(name)
        return hist.quantile(q) if hist is not None else 0.0

    # -- merging (multi-run aggregation, e.g. `repro compare`) ---------------
    def merge(self, other: "MetricsRegistry") -> None:
        with self._lock, other._lock:
            for name, value in other._counters.items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            self._gauges.update(other._gauges)
            for name, hist in other._histograms.items():
                mine = self._histograms.get(name)
                if mine is None:
                    mine = self._histograms[name] = Histogram(hist.bounds)
                mine.merge(hist)

    # -- exposition ---------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {name: h.to_dict() for name, h in self._histograms.items()},
            }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            lines: list[str] = []
            for name in sorted(self._counters):
                metric = _prom_name(name)
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {_prom_value(self._counters[name])}")
            for name in sorted(self._gauges):
                metric = _prom_name(name)
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {_prom_value(self._gauges[name])}")
            for name in sorted(self._histograms):
                hist = self._histograms[name]
                metric = _prom_name(name)
                lines.append(f"# TYPE {metric} histogram")
                cumulative = 0
                for bound, count in zip(hist.bounds, hist.counts):
                    cumulative += count
                    lines.append(f'{metric}_bucket{{le="{bound:g}"}} {cumulative}')
                lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
                lines.append(f"{metric}_sum {_prom_value(hist.sum)}")
                lines.append(f"{metric}_count {hist.count}")
            return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        """Write metrics to ``path``: Prometheus text for ``.prom``/``.txt``,
        JSON otherwise."""
        text = self.to_prometheus() if path.endswith((".prom", ".txt")) else self.to_json()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def absorb(self, snapshot: Mapping[str, float], prefix: str) -> None:
        """Record a stats snapshot (e.g. ``SurrogateStats``) as gauges."""
        for key, value in snapshot.items():
            self.set_gauge(f"{prefix}.{key}", float(value))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
            )
