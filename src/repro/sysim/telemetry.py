"""Synthetic system telemetry — the data workload identification embeds.

"Data to Embed — Telemetry: Time Series. E.g., CPU load, Memory utilization,
Disk and Network I/O… Easy to collect; noisy!" (tutorial slide 90).

:func:`generate_telemetry` produces a multivariate utilisation time series
whose *shape* is a deterministic function of the workload's characteristics
(so similar workloads yield similar telemetry) plus configurable noise (so
identification is non-trivial).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ReproError
from ..workloads import Workload

__all__ = ["TelemetryTrace", "generate_telemetry", "TELEMETRY_CHANNELS"]

#: Channel order in every telemetry matrix.
TELEMETRY_CHANNELS = ("cpu", "mem", "disk_io", "net_io", "qps")


@dataclass(frozen=True)
class TelemetryTrace:
    """A (n_steps × n_channels) utilisation matrix with metadata."""

    workload_name: str
    data: np.ndarray  # shape (n_steps, 5), values roughly in [0, 1]
    step_seconds: float = 300.0

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.data.shape[1] != len(TELEMETRY_CHANNELS):
            raise ReproError(
                f"telemetry must be (n_steps, {len(TELEMETRY_CHANNELS)}), got {self.data.shape}"
            )


def _base_levels(workload: Workload) -> np.ndarray:
    """Deterministic mean utilisation per channel from workload features."""
    conc = np.log10(workload.concurrency + 1.0) / 3.0  # ~[0, 1] for 1..1000
    cpu = np.clip(0.15 + 0.5 * conc + 0.25 * workload.scan_fraction * workload.read_fraction, 0.0, 0.95)
    mem = np.clip(0.10 + 0.08 * np.log10(workload.working_set_mb + 1.0), 0.0, 0.95)
    disk = np.clip(
        0.05 + 0.5 * workload.write_fraction * workload.commit_sensitivity
        + 0.2 * (1.0 - workload.skew) * workload.read_fraction,
        0.0,
        0.95,
    )
    net = np.clip(0.08 + 0.45 * conc, 0.0, 0.95)
    qps = np.clip(0.2 + 0.6 * conc - 0.2 * workload.scan_fraction, 0.02, 0.95)
    return np.array([cpu, mem, disk, net, qps])


def generate_telemetry(
    workload: Workload,
    n_steps: int = 288,
    noise: float = 0.04,
    diurnal_amplitude: float = 0.25,
    period: int | None = None,
    rng: np.random.Generator | None = None,
) -> TelemetryTrace:
    """Produce a telemetry trace for one workload.

    The trace is a diurnal carrier wave (load swings over a day), channel
    means set by the workload's characteristics, short-period harmonics set
    by its mix (checkpoint-like bursts on write-heavy workloads), and white
    noise on top.
    """
    if n_steps < 8:
        raise ReproError(f"n_steps must be >= 8, got {n_steps}")
    if noise < 0:
        raise ReproError(f"noise must be >= 0, got {noise}")
    rng = rng if rng is not None else np.random.default_rng(0)
    period = period if period is not None else n_steps // 2
    t = np.arange(n_steps)
    base = _base_levels(workload)

    # Diurnal carrier affecting all channels (phase tied to the mix so the
    # curve shape itself is informative).
    phase = 2.0 * np.pi * workload.read_fraction
    carrier = 1.0 + diurnal_amplitude * np.sin(2.0 * np.pi * t / period + phase)

    data = np.outer(carrier, base)

    # Write-heavy workloads show checkpoint/flush bursts on disk I/O.
    burst_period = max(4, int(6 + 20 * workload.skew))
    bursts = (t % burst_period == 0).astype(float)
    data[:, 2] += 0.3 * workload.write_fraction * bursts

    # Scan-heavy workloads show long CPU plateaus (query batches).
    batch = 0.15 * workload.scan_fraction * np.sign(np.sin(2.0 * np.pi * t / max(8, period // 3)))
    data[:, 0] += np.maximum(0.0, batch)

    data += rng.normal(0.0, noise, size=data.shape)
    return TelemetryTrace(workload.name, np.clip(data, 0.0, 1.0))
