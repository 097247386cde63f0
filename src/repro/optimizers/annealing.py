"""Simulated annealing — the classic search-based tuner the overview lists.

A local search that accepts uphill moves with temperature-controlled
probability, cooling geometrically. BestConfig-style divide-and-conquer
and hill climbing are close relatives.
"""

from __future__ import annotations

import math

from ..core import Objective, Optimizer, Trial
from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace

__all__ = ["SimulatedAnnealingOptimizer"]

#: Neighbourhood size in unit-space (passed to ``space.neighbor``).
STEP_SCALE = 0.15


class SimulatedAnnealingOptimizer(Optimizer):
    """Metropolis acceptance over the space's neighbourhood structure.

    Parameters
    ----------
    initial_temperature:
        Starting temperature in units of the objective's score scale.
        When None, it is calibrated from the spread of the first
        ``n_init`` random probes.
    cooling:
        Geometric cooling rate per observed trial, in (0, 1).
    n_init:
        Random probes before annealing starts.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        initial_temperature: float | None = None,
        cooling: float = 0.95,
        n_init: int = 5,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, objectives, seed=seed)
        if not 0.0 < cooling < 1.0:
            raise OptimizerError(f"cooling must be in (0, 1), got {cooling}")
        if n_init < 1:
            raise OptimizerError(f"n_init must be >= 1, got {n_init}")
        self.cooling = cooling
        self.n_init = n_init
        self._temperature = initial_temperature
        self._current: Configuration | None = None
        self._current_score = math.inf

    def _suggest(self) -> Configuration:
        if len(self.history) < self.n_init or self._current is None:
            return self.space.sample(self.rng)
        return self.space.neighbor(self._current, self.rng, scale=STEP_SCALE)

    def _on_observe(self, trial: Trial, memo: object) -> None:
        obj = self.objective
        score = obj.score(trial.metric(obj.name))
        if self._temperature is None and len(self.history) >= self.n_init:
            spread = self.history.scores(obj)
            self._temperature = float(max(1e-9, spread.std())) or 1.0
        accept = score < self._current_score
        if not accept and self._temperature is not None and self._temperature > 0:
            delta = score - self._current_score
            accept = self.rng.random() < math.exp(-delta / self._temperature)
        if accept or self._current is None:
            self._current = trial.config
            self._current_score = score
        if self._temperature is not None:
            self._temperature *= self.cooling

    def _digest_state(self) -> dict[str, object]:
        return {
            "temperature": None if self._temperature is None else round(self._temperature, 12),
            "current_score": None if self._current_score == math.inf else round(self._current_score, 12),
        }
