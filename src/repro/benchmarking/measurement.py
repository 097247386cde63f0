"""Benchmark measurements: the metrics a trial produces.

A :class:`Measurement` is what one benchmark run against a system yields —
throughput, the latency distribution summary, resource utilisation, and the
wall-clock cost of obtaining it. The tutorial's objectives slide ("What are
we Autotuning for?") lists exactly these: latency (avg/median/P95),
throughput, cost, resource usage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ..exceptions import ReproError

__all__ = ["REFERENCE_S", "Measurement", "aggregate_measurements"]

#: A run's length in seconds when it is given none (a trial without a fidelity);
#: a run this long carries the cloud's transient noise unscaled.
REFERENCE_S = 60.0


@dataclass(frozen=True)
class Measurement:
    """One benchmark run's results.

    All latencies in milliseconds, throughput in operations/second,
    utilisations in [0, 1], elapsed time in seconds.
    """

    throughput: float
    latency_avg: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    cpu_util: float = 0.0
    mem_util: float = 0.0
    io_util: float = 0.0
    elapsed_s: float = REFERENCE_S
    machine_id: str = "local"
    extra: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.throughput < 0:
            raise ReproError(f"throughput must be >= 0, got {self.throughput}")
        lat = (self.latency_avg, self.latency_p50, self.latency_p95, self.latency_p99)
        if any(v < 0 for v in lat):
            raise ReproError(f"latencies must be >= 0, got {lat}")
        if self.elapsed_s <= 0:
            raise ReproError(f"elapsed_s must be positive, got {self.elapsed_s}")

    def metrics(self) -> dict[str, float]:
        """Flat metric mapping consumed by optimizers."""
        out = {
            "throughput": self.throughput,
            "latency_avg": self.latency_avg,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "cpu_util": self.cpu_util,
            "mem_util": self.mem_util,
            "io_util": self.io_util,
            "elapsed_s": self.elapsed_s,
        }
        out.update(self.extra)
        return out

    def metric(self, name: str) -> float:
        try:
            return self.metrics()[name]
        except KeyError:
            raise ReproError(f"no metric {name!r}; have {sorted(self.metrics())}") from None


def aggregate_measurements(
    measurements: Iterable[Measurement],
    how: str = "median",
) -> Measurement:
    """Combine repeated runs of the same configuration.

    ``how`` is "mean" or "median" — the naive noise strategy from the "To
    Learn More … Get Stable!" slide (*run N times, take aggregate*).
    Elapsed time sums (you paid for every run); utilisations average.
    """
    runs = list(measurements)
    if not runs:
        raise ReproError("cannot aggregate zero measurements")
    if how not in ("mean", "median"):
        raise ReproError(f"how must be 'mean' or 'median', got {how!r}")
    agg = np.mean if how == "mean" else np.median

    def over(attr: str) -> float:
        return float(agg([getattr(m, attr) for m in runs]))

    extra_keys = set().union(*(m.extra.keys() for m in runs))
    extra = {
        k: float(agg([m.extra[k] for m in runs if k in m.extra])) for k in extra_keys
    }
    return Measurement(
        throughput=over("throughput"),
        latency_avg=over("latency_avg"),
        latency_p50=over("latency_p50"),
        latency_p95=over("latency_p95"),
        latency_p99=over("latency_p99"),
        cpu_util=float(np.mean([m.cpu_util for m in runs])),
        mem_util=float(np.mean([m.mem_util for m in runs])),
        io_util=float(np.mean([m.io_util for m in runs])),
        elapsed_s=float(sum(m.elapsed_s for m in runs)),
        machine_id=runs[0].machine_id if len({m.machine_id for m in runs}) == 1 else "multiple",
        extra=extra,
    )
