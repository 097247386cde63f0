"""Duet benchmarking — "lean in to the noise" (slide 71).

Run the baseline and the trial configuration *side by side on the same
machine at the same time*, so both experience the same co-tenant
interference, and report the normalised relative difference. Originally
built for CI performance regressions (ICPE 2020); here it is a noise
strategy for cloud tuning: the relative score is far more stable than
either absolute measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from ..core import Objective
from ..exceptions import ReproError, SystemCrashError
from ..space import Configuration
from ..workloads import Workload
from .measurement import REFERENCE_S, Measurement

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from ..sysim.system import SimulatedSystem

__all__ = ["DuetBenchmarkRunner", "DuetOutcome"]


@dataclass(frozen=True)
class DuetOutcome:
    """Paired measurement of (baseline, candidate) under shared noise."""

    baseline: Measurement
    candidate: Measurement
    metric: str

    @property
    def relative(self) -> float:
        """candidate / baseline on the chosen metric (1.0 = no change)."""
        b = self.baseline.metric(self.metric)
        if b == 0:
            raise ReproError(f"baseline metric {self.metric!r} is zero")
        return self.candidate.metric(self.metric) / b


class DuetBenchmarkRunner:
    """Paired-run evaluator reporting noise-cancelled relative scores.

    ``runner(candidate, fidelity=None)`` runs the baseline and the candidate
    side by side for ``fidelity`` seconds (:data:`~.measurement.REFERENCE_S`
    when the trial has no fidelity) and returns ``relative × calibration``,
    where ``calibration`` is the baseline's quiet-environment metric value —
    so scores stay on the metric's natural scale while inheriting the duet's
    variance reduction.
    """

    def __init__(
        self,
        system: SimulatedSystem,
        workload: Workload,
        objective: Objective,
    ) -> None:
        self.system = system
        self.workload = workload
        self.objective = objective
        self.baseline = system.space.default_configuration()
        self._calibration: float | None = None

    def run_pair(self, candidate: Configuration, duration_s: float = REFERENCE_S) -> DuetOutcome:
        """One duet of ``duration_s`` seconds: both configs measured under one shared transient draw."""
        system = self.system
        if not system.space.is_feasible(candidate):
            raise SystemCrashError(f"infeasible configuration: {candidate}")
        machine = system._home_machine
        system.env.advance(machine)
        shared = system.env.transient_draw(duration_s)
        profile_b = system.performance(self.baseline, self.workload)
        profile_c = system.performance(candidate, self.workload)
        m_b = system._measure(profile_b, self.workload, duration_s, machine, shared_draw=shared)
        m_c = system._measure(profile_c, self.workload, duration_s, machine, shared_draw=shared)
        return DuetOutcome(m_b, m_c, self.objective.name)

    def _calibrate(self) -> float:
        if self._calibration is None:
            profile = self.system.performance(self.baseline, self.workload)
            from ..sysim.cloud import Machine

            quiet = Machine("calib", self.system.env.vm, speed_factor=1.0)
            m = self.system._measure(profile, self.workload, REFERENCE_S, quiet, shared_draw=1.0)
            self._calibration = m.metric(self.objective.name)
        return self._calibration

    def __call__(self, candidate: Configuration, fidelity: float | None = None):
        """Evaluator: duet-normalised metric on the baseline's scale.

        Cost is 2× the run length — the duet's price is running the baseline
        alongside every candidate.
        """
        duration_s = REFERENCE_S if fidelity is None else fidelity
        outcome = self.run_pair(candidate, duration_s)
        value = outcome.relative * self._calibrate()
        return {self.objective.name: value}, 2.0 * duration_s
