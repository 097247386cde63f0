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
from ..exceptions import ReproError
from ..space import Configuration
from ..workloads import Workload
from .measurement import Measurement

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

    The evaluator returns ``relative × calibration`` where ``calibration``
    is the baseline's quiet-environment metric value — so scores stay on
    the metric's natural scale while inheriting the duet's variance
    reduction.
    """

    def __init__(
        self,
        system: SimulatedSystem,
        workload: Workload,
        objective: Objective,
        duration_s: float = 60.0,
    ) -> None:
        self.system = system
        self.workload = workload
        self.objective = objective
        self.baseline = system.space.default_configuration()
        self.duration_s = duration_s
        self._calibration: float | None = None

    def run_pair(self, candidate: Configuration) -> DuetOutcome:
        """One duet: both configs measured under one shared transient draw."""
        system = self.system
        if not system.space.is_feasible(candidate):
            from ..exceptions import SystemCrashError

            raise SystemCrashError(f"infeasible configuration: {candidate}")
        machine = system._home_machine
        system.env.advance(machine)
        shared = system.env.transient_draw()
        profile_b = system.performance(self.baseline, self.workload)
        profile_c = system.performance(candidate, self.workload)
        m_b = system._measure(profile_b, self.workload, self.duration_s, machine, shared_draw=shared)
        m_c = system._measure(profile_c, self.workload, self.duration_s, machine, shared_draw=shared)
        return DuetOutcome(m_b, m_c, self.objective.name)

    def _calibrate(self) -> float:
        if self._calibration is None:
            profile = self.system.performance(self.baseline, self.workload)
            from ..sysim.cloud import Machine

            quiet = Machine("calib", self.system.env.vm, speed_factor=1.0)
            m = self.system._measure(profile, self.workload, self.duration_s, quiet, shared_draw=1.0)
            self._calibration = m.metric(self.objective.name)
        return self._calibration

    def __call__(self, candidate: Configuration):
        """Evaluator: duet-normalised metric on the baseline's scale.

        Cost is 2× duration — the duet's price is running the baseline
        alongside every candidate.
        """
        outcome = self.run_pair(candidate)
        value = outcome.relative * self._calibrate()
        return {self.objective.name: value}, 2.0 * self.duration_s
