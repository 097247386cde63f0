"""Parametric workload descriptions.

Real autotuning drives a benchmark kit (YCSB, TPC-C, TPC-H, or a customer
trace) against the target system. Here a :class:`Workload` captures the
characteristics those kits exercise — operation mix, working-set size,
access skew, concurrency — and the simulated systems in :mod:`repro.sysim`
compute performance from them, the same way the real kit's load shapes real
performance.

The numeric :meth:`Workload.signature` doubles as the ground-truth feature
vector for the workload-identification experiments: similar signatures ⇒
similar optimal configurations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ReproError

__all__ = ["Workload"]


def _check_fraction(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ReproError(f"{name} must be in [0, 1], got {value}")
    return float(value)


@dataclass(frozen=True)
class Workload:
    """One workload: what the clients ask the system to do.

    Attributes
    ----------
    name:
        Human label, e.g. ``"ycsb-a"`` or ``"tpch-sf10"``.
    read_fraction:
        Share of operations that are reads (the rest write).
    scan_fraction:
        Share of reads that are large scans / analytical accesses
        (vs. point lookups).
    data_size_mb:
        Total resident data size.
    working_set_mb:
        Hot-set size actually touched during a run; ≤ ``data_size_mb``.
    skew:
        Access skew in [0, 1]: 0 = uniform, 1 = extremely Zipfian. Skewed
        workloads get high cache-hit ratios from small buffer pools.
    concurrency:
        Offered load: number of concurrent client sessions.
    sort_intensity:
        How much queries rely on sort/join/aggregate memory in [0, 1]
        (drives ``work_mem``-style knob sensitivity).
    commit_sensitivity:
        How much throughput depends on durable-commit latency in [0, 1]
        (drives flush-method knob sensitivity).
    think_time_ms:
        Client think time between operations.
    scale_factor:
        Benchmark scale factor (multi-fidelity lever). Scaling a workload
        multiplies data and working-set sizes.
    tags:
        Free-form labels, e.g. the benchmark family — used as ground-truth
        classes by workload-identification experiments.
    """

    name: str
    read_fraction: float = 0.5
    scan_fraction: float = 0.1
    data_size_mb: float = 10_000.0
    working_set_mb: float = 2_000.0
    skew: float = 0.5
    concurrency: int = 32
    sort_intensity: float = 0.2
    commit_sensitivity: float = 0.5
    think_time_ms: float = 0.0
    scale_factor: float = 1.0
    tags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        _check_fraction("read_fraction", self.read_fraction)
        _check_fraction("scan_fraction", self.scan_fraction)
        _check_fraction("skew", self.skew)
        _check_fraction("sort_intensity", self.sort_intensity)
        _check_fraction("commit_sensitivity", self.commit_sensitivity)
        if self.data_size_mb <= 0 or self.working_set_mb <= 0:
            raise ReproError("data_size_mb and working_set_mb must be positive")
        if self.working_set_mb > self.data_size_mb + 1e-9:
            raise ReproError(
                f"working_set_mb ({self.working_set_mb}) cannot exceed "
                f"data_size_mb ({self.data_size_mb})"
            )
        if self.concurrency < 1:
            raise ReproError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.think_time_ms < 0:
            raise ReproError(f"think_time_ms must be >= 0, got {self.think_time_ms}")
        if self.scale_factor <= 0:
            raise ReproError(f"scale_factor must be positive, got {self.scale_factor}")

    @property
    def write_fraction(self) -> float:
        return 1.0 - self.read_fraction

    def blend(self, other: "Workload", alpha: float, name: str | None = None) -> "Workload":
        """Convex mix of two workloads; ``alpha=0`` is self, 1 is ``other``.

        Used to synthesise gradual workload drift and "not-exactly-alike"
        workloads for identification experiments.
        """
        if not 0.0 <= alpha <= 1.0:
            raise ReproError(f"alpha must be in [0, 1], got {alpha}")

        def mix(a: float, b: float) -> float:
            return (1 - alpha) * a + alpha * b

        return Workload(
            name=name or f"{self.name}*{1 - alpha:g}+{other.name}*{alpha:g}",
            read_fraction=mix(self.read_fraction, other.read_fraction),
            scan_fraction=mix(self.scan_fraction, other.scan_fraction),
            data_size_mb=mix(self.data_size_mb, other.data_size_mb),
            working_set_mb=min(
                mix(self.working_set_mb, other.working_set_mb),
                mix(self.data_size_mb, other.data_size_mb),
            ),
            skew=mix(self.skew, other.skew),
            concurrency=max(1, round(mix(self.concurrency, other.concurrency))),
            sort_intensity=mix(self.sort_intensity, other.sort_intensity),
            commit_sensitivity=mix(self.commit_sensitivity, other.commit_sensitivity),
            think_time_ms=mix(self.think_time_ms, other.think_time_ms),
            scale_factor=mix(self.scale_factor, other.scale_factor),
            tags=tuple(sorted(set(self.tags) | set(other.tags))),
        )

    def perturbed(self, rng: np.random.Generator, magnitude: float = 0.05) -> "Workload":
        """A noisy variant of this workload (same family, different tenant)."""

        def jitter_frac(v: float) -> float:
            return float(np.clip(v + rng.normal(0.0, magnitude), 0.0, 1.0))

        def jitter_pos(v: float) -> float:
            return float(v * np.exp(rng.normal(0.0, magnitude)))

        data = jitter_pos(self.data_size_mb)
        return dataclasses.replace(
            self,
            name=f"{self.name}~",
            read_fraction=jitter_frac(self.read_fraction),
            scan_fraction=jitter_frac(self.scan_fraction),
            data_size_mb=data,
            working_set_mb=min(data, jitter_pos(self.working_set_mb)),
            skew=jitter_frac(self.skew),
            concurrency=max(1, round(jitter_pos(self.concurrency))),
            sort_intensity=jitter_frac(self.sort_intensity),
            commit_sensitivity=jitter_frac(self.commit_sensitivity),
        )

    def signature(self) -> np.ndarray:
        """Ground-truth numeric feature vector (normalised-ish)."""
        return np.array(
            [
                self.read_fraction,
                self.scan_fraction,
                np.log10(self.data_size_mb),
                np.log10(self.working_set_mb),
                self.skew,
                np.log10(self.concurrency + 1.0),
                self.sort_intensity,
                self.commit_sensitivity,
                np.log10(self.think_time_ms + 1.0),
            ]
        )

    #: Names matching :meth:`signature` entries, for reporting.
    SIGNATURE_FIELDS = (
        "read_fraction",
        "scan_fraction",
        "log_data_size",
        "log_working_set",
        "skew",
        "log_concurrency",
        "sort_intensity",
        "commit_sensitivity",
        "log_think_time",
    )
