"""TUNA — Tuning Unstable and Noisy cloud Applications (Eurosys 2025, slide 71).

The slide's recipe:

* **Successive halving** — "progressively run on multiple VMs iff the
  config looks good", sampling noise across a cluster;
* **outlier elimination** — drop measurements from machines whose noise
  makes them unrepresentative;
* **sideband signals + a model** — regress the score on an observable
  machine-load signal and report the load-corrected residual, registering
  more *stable* scores with the optimizer.

Result (reproduced in E16): faster learning and more robust configs than
naively repeating measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from typing import TYPE_CHECKING

from ..core import Objective
from ..exceptions import ReproError
from ..space import Configuration
from ..workloads import Workload
from .measurement import REFERENCE_S

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from ..sysim.cloud import Machine
    from ..sysim.system import SimulatedSystem

__all__ = ["TunaRunner", "TunaObservation"]

#: Only configs within this factor of the incumbent graduate to the wider rung.
PROMOTE_TOLERANCE = 1.15
#: Measurements more than this many MADs from the rung median are discarded
#: before aggregation.
OUTLIER_Z = 3.0


@dataclass
class TunaObservation:
    """One raw (machine, load, score) sample collected by TUNA."""

    machine_id: str
    load: float
    value: float


@dataclass
class _LoadModel:
    """Online linear model of metric value vs sideband load signal."""

    n: int = 0
    sum_x: float = 0.0
    sum_y: float = 0.0
    sum_xx: float = 0.0
    sum_xy: float = 0.0
    samples: list[tuple[float, float]] = field(default_factory=list)

    def add(self, load: float, value: float) -> None:
        self.n += 1
        self.sum_x += load
        self.sum_y += value
        self.sum_xx += load * load
        self.sum_xy += load * value
        self.samples.append((load, value))

    @property
    def slope(self) -> float:
        if self.n < 3:
            return 0.0
        denom = self.n * self.sum_xx - self.sum_x**2
        if abs(denom) < 1e-12:
            return 0.0
        return (self.n * self.sum_xy - self.sum_x * self.sum_y) / denom

    @property
    def mean_load(self) -> float:
        return self.sum_x / self.n if self.n else 0.0

    def corrected(self, load: float, value: float) -> float:
        """Value adjusted to the reference (mean) load level."""
        return value - self.slope * (load - self.mean_load)


class TunaRunner:
    """Noise-robust evaluator: halving across machines + load correction.

    Parameters
    ----------
    machines:
        The VM pool noise is sampled across.
    rungs:
        Machines used per rung, e.g. ``(1, 3)``: every config runs on one
        machine; only configs looking better than ``PROMOTE_TOLERANCE ×``
        the incumbent graduate to the wider rung.
    """

    def __init__(
        self,
        system: SimulatedSystem,
        workload: Workload,
        objective: Objective,
        machines: list[Machine],
        rungs: tuple[int, ...] = (1, 3),
        seed: int | None = None,
    ) -> None:
        if not machines:
            raise ReproError("TUNA needs a machine pool")
        if any(r < 1 for r in rungs) or list(rungs) != sorted(rungs):
            raise ReproError(f"rungs must be ascending positive counts, got {rungs}")
        if rungs[-1] > len(machines):
            raise ReproError(f"largest rung {rungs[-1]} exceeds pool size {len(machines)}")
        self.system = system
        self.workload = workload
        self.objective = objective
        self.machines = list(machines)
        self.rungs = tuple(rungs)
        self.rng = np.random.default_rng(seed)
        self.load_model = _LoadModel()
        self.best_score: float | None = None
        self.observations: list[TunaObservation] = []

    def _run_on(self, config: Configuration, machine: Machine) -> TunaObservation:
        m = self.system.run(self.workload, machine=machine, config=config)
        load = self.system.env.sideband_signal(machine)
        value = m.metric(self.objective.name)
        obs = TunaObservation(machine.machine_id, load, value)
        self.observations.append(obs)
        self.load_model.add(load, value)
        return obs

    def _aggregate(self, observations: list[TunaObservation]) -> float:
        corrected = np.array(
            [self.load_model.corrected(o.load, o.value) for o in observations]
        )
        if len(corrected) >= 3:
            med = np.median(corrected)
            mad = np.median(np.abs(corrected - med)) or 1e-12
            keep = np.abs(corrected - med) <= OUTLIER_Z * 1.4826 * mad
            corrected = corrected[keep] if keep.any() else corrected
        return float(np.median(corrected))

    def __call__(self, config: Configuration):
        """Evaluator: halving rungs, load-corrected median, total cost."""
        obj = self.objective
        cost = 0.0
        collected: list[TunaObservation] = []
        value = None
        for rung_idx, n_machines in enumerate(self.rungs):
            pool = list(self.machines)
            self.rng.shuffle(pool)
            need = n_machines - len(collected)
            for machine in pool[:max(0, need)]:
                collected.append(self._run_on(config, machine))
                cost += REFERENCE_S
            value = self._aggregate(collected)
            score = obj.score(value)
            if self.best_score is None or score < self.best_score:
                self.best_score = score
            elif rung_idx < len(self.rungs) - 1:
                tol = abs(self.best_score) * (PROMOTE_TOLERANCE - 1.0)
                if score > self.best_score + tol:
                    break  # not promising: stop sampling wider rungs
        return {obj.name: float(value)}, cost
