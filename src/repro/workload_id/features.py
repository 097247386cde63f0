"""Feature extraction from the data sources slide 90 lists.

* **Telemetry (time series)** — per-channel summary statistics, temporal
  structure (lag autocorrelation), and spectral shape. "Easy to collect;
  noisy!"
* **Query logs (graph-ish)** — a synthetic query log generator consistent
  with a workload's mix, and histogram/cost features over it. "Captures
  most of the information about the workload (but not all!)"
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ReproError
from ..sysim.telemetry import TelemetryTrace
from ..workloads import Workload

__all__ = [
    "telemetry_features",
    "QueryRecord",
    "synthetic_query_log",
    "query_log_features",
]


def _autocorr(x: np.ndarray, lag: int) -> float:
    if len(x) <= lag or x.std() == 0:
        return 0.0
    a = x[:-lag] - x.mean()
    b = x[lag:] - x.mean()
    return float((a * b).mean() / (x.var() + 1e-12))


def _dominant_frequency(x: np.ndarray) -> float:
    """Index (normalised) of the strongest non-DC Fourier component."""
    if len(x) < 8 or x.std() == 0:
        return 0.0
    spectrum = np.abs(np.fft.rfft(x - x.mean()))
    if len(spectrum) <= 1:
        return 0.0
    peak = int(np.argmax(spectrum[1:])) + 1
    return peak / len(spectrum)


def telemetry_features(trace: TelemetryTrace) -> np.ndarray:
    """Fixed-width feature vector from a telemetry trace."""
    rows = []
    for i in range(trace.data.shape[1]):
        x = trace.data[:, i]
        rows.extend(
            [
                float(x.mean()),
                float(x.std()),
                float(np.percentile(x, 95)),
                _autocorr(x, 1),
                _dominant_frequency(x),
            ]
        )
    return np.array(rows)


@dataclass(frozen=True)
class QueryRecord:
    """One entry of a (synthetic) query log."""

    kind: str  # point_select | range_scan | insert | update
    tables: int
    est_cost: float


_QUERY_KINDS = ("point_select", "range_scan", "insert", "update")


def synthetic_query_log(
    workload: Workload,
    n_queries: int = 500,
    rng: np.random.Generator | None = None,
) -> list[QueryRecord]:
    """Sample a query log consistent with the workload's operation mix.

    Stands in for the production query logs slide 90 describes (real ones
    are sensitive; synthetic ones keep the experiments self-contained).
    """
    if n_queries < 1:
        raise ReproError(f"n_queries must be >= 1, got {n_queries}")
    rng = rng if rng is not None else np.random.default_rng(0)
    p_point = workload.read_fraction * (1.0 - workload.scan_fraction)
    p_scan = workload.read_fraction * workload.scan_fraction
    p_insert = (1.0 - workload.read_fraction) * 0.6
    p_update = (1.0 - workload.read_fraction) * 0.4
    probs = np.array([p_point, p_scan, p_insert, p_update])
    probs = probs / probs.sum()
    log = []
    data_gb = workload.data_size_mb / 1024.0
    for _ in range(n_queries):
        kind = _QUERY_KINDS[int(rng.choice(4, p=probs))]
        if kind == "range_scan":
            tables = 1 + int(rng.poisson(1.0 + 3.0 * workload.sort_intensity))
            cost = float(rng.lognormal(np.log(10.0 + 50.0 * data_gb), 0.5))
        elif kind == "point_select":
            tables = 1 + int(rng.random() < 0.2)
            cost = float(rng.lognormal(0.0, 0.3))
        else:
            tables = 1
            cost = float(rng.lognormal(0.5 + workload.commit_sensitivity, 0.3))
        log.append(QueryRecord(kind, tables, cost))
    return log


def query_log_features(log: list[QueryRecord]) -> np.ndarray:
    """Mix shares + plan-shape + cost-distribution features."""
    if not log:
        raise ReproError("query log is empty")
    kinds = np.array([q.kind for q in log])
    costs = np.array([q.est_cost for q in log])
    tables = np.array([q.tables for q in log])
    fracs = [float((kinds == k).mean()) for k in _QUERY_KINDS]
    log_costs = np.log1p(costs)
    std = log_costs.std() or 1.0
    skew = float(((log_costs - log_costs.mean()) ** 3).mean() / std**3)
    return np.array(
        fracs
        + [
            float(tables.mean()),
            float(np.log1p(costs.mean())),
            float(np.log1p(np.percentile(costs, 95))),
            skew,
        ]
    )
