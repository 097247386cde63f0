"""Time-varying workloads: phases, gradual drift, diurnal patterns.

Online tuning's central challenge ("Challenge: Workload Shifting" slides):
the workload an agent tunes against keeps changing. A
:class:`WorkloadTrace` maps a time step to the active workload; online
agents and workload-shift detectors consume it step by step.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from ..exceptions import ReproError
from .base import Workload

__all__ = ["WorkloadTrace", "PhasedTrace", "DriftingTrace", "DiurnalTrace"]


class WorkloadTrace(ABC):
    """A workload as a function of (integer) time step."""

    def __init__(self, length: int) -> None:
        if length < 1:
            raise ReproError(f"trace length must be >= 1, got {length}")
        self.length = int(length)

    @abstractmethod
    def at(self, step: int) -> Workload:
        """The workload active at ``step`` (0-based)."""

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return (self.at(t) for t in range(self.length))


@dataclass(frozen=True)
class _Phase:
    workload: Workload
    steps: int


class PhasedTrace(WorkloadTrace):
    """Abrupt shifts: run workload A for k steps, then B, then C…

    The classic "they were running TPC-C, but now they're doing something
    else" scenario from the "Deploying Configs Tuned Offline" slide.
    """

    def __init__(self, phases: Sequence[tuple[Workload, int]]) -> None:
        if not phases:
            raise ReproError("need at least one phase")
        self._phases = [_Phase(w, int(s)) for w, s in phases]
        for p in self._phases:
            if p.steps < 1:
                raise ReproError("each phase must last at least one step")
        super().__init__(sum(p.steps for p in self._phases))

    def at(self, step: int) -> Workload:
        if step < 0:
            raise ReproError(f"step must be >= 0, got {step}")
        remaining = min(step, self.length - 1)
        for phase in self._phases:
            if remaining < phase.steps:
                return phase.workload
            remaining -= phase.steps
        return self._phases[-1].workload


class DriftingTrace(WorkloadTrace):
    """Gradual linear drift from one workload to another."""

    def __init__(self, start: Workload, end: Workload, length: int) -> None:
        super().__init__(length)
        self.start = start
        self.end = end

    def at(self, step: int) -> Workload:
        if step < 0:
            raise ReproError(f"step must be >= 0, got {step}")
        alpha = min(1.0, step / max(1, self.length - 1))
        return self.start.blend(self.end, alpha)


class DiurnalTrace(WorkloadTrace):
    """Sinusoidal day/night load swing around a base workload.

    Concurrency swings by ``amplitude`` (relative) over ``period`` steps;
    the mix shifts slightly read-heavier at the peak (more user traffic).
    """

    def __init__(
        self,
        base: Workload,
        length: int,
        period: int = 24,
        amplitude: float = 0.5,
    ) -> None:
        super().__init__(length)
        if period < 2:
            raise ReproError(f"period must be >= 2, got {period}")
        if not 0.0 <= amplitude < 1.0:
            raise ReproError(f"amplitude must be in [0, 1), got {amplitude}")
        self.base = base
        self.period = int(period)
        self.amplitude = float(amplitude)

    def at(self, step: int) -> Workload:
        if step < 0:
            raise ReproError(f"step must be >= 0, got {step}")
        phase = math.sin(2.0 * math.pi * (step % self.period) / self.period)
        load = 1.0 + self.amplitude * phase
        import dataclasses

        return dataclasses.replace(
            self.base,
            name=f"{self.base.name}@t{step}",
            concurrency=max(1, round(self.base.concurrency * load)),
            read_fraction=min(1.0, self.base.read_fraction * (1.0 + 0.1 * phase)),
        )
