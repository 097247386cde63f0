"""ParEGO — multi-objective BO via random Tchebycheff scalarisation.

Knowles (2006), cited on slide 58: each iteration draws a random weight
vector θ, collapses the observed objective vectors into one augmented-
Tchebycheff score, fits the surrogate to that, and maximises EI. Over many
iterations the rotating weights trace out the whole Pareto frontier.

Also provides :class:`LinearScalarizationOptimizer` (the slide's simpler
``min Σ θᵢ fᵢ(x)`` alternative) as the baseline ParEGO is compared against:
linear scalarisation cannot reach concave regions of the front.
"""

from __future__ import annotations

import numpy as np

from ..core import Objective, Trial
from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace
from .bo import BayesianOptimizer
from .pareto import pareto_front_mask

__all__ = ["ParEGOOptimizer", "LinearScalarizationOptimizer"]


class _ScalarizingBO(BayesianOptimizer):
    """BO whose target is a scalarisation recomputed per suggest."""

    supports_multi_objective = True

    def __init__(
        self,
        space: ConfigurationSpace,
        objectives: list[Objective],
        n_init: int = 8,
        n_candidates: int = 512,
        seed: int | None = None,
    ) -> None:
        if len(objectives) < 2:
            raise OptimizerError("multi-objective optimizers need >= 2 objectives")
        super().__init__(space, n_init=n_init, n_candidates=n_candidates, objectives=objectives, seed=seed)
        self._weights = np.empty(0)  # this suggestion's scalarisation weights
        self._y = np.empty(0)  # the scalarised scores the model was fitted on

    # -- scalarisation -------------------------------------------------------
    @staticmethod
    def _normalize(F: np.ndarray) -> np.ndarray:
        lo = F.min(axis=0)
        span = F.max(axis=0) - lo
        span[span <= 0] = 1.0
        return (F - lo) / span

    def _scalarize(self, F_norm: np.ndarray, weights: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- suggest -----------------------------------------------------------------
    def _before_model(self) -> Configuration | None:
        config = super()._before_model()
        if config is None:
            # Fresh weights every suggestion, so the model refits every time.
            self._weights = np.maximum(self.rng.dirichlet(np.ones(len(self.objectives))), 1e-6)
            self._model_stale = True
        return config

    def _training_set(self) -> tuple[list[Trial], np.ndarray, np.ndarray]:
        """Completed trials and their scalarised scores under this suggestion's weights."""
        trials = self.history.completed()
        self._y = self._scalarize(self._normalize(self.objective_values()), self._weights)
        return trials, self._encoding_cache.encode_trials(trials), self._y

    def _scores(self, cands: list[Configuration]) -> np.ndarray:
        mean, std = self.model.predict(self._features(cands), return_std=True)
        return self.acquisition(mean, std, float(self._y.min()))

    # -- results ------------------------------------------------------------------
    def pareto_trials(self) -> list[Trial]:
        """Completed trials whose objective vectors are non-dominated."""
        done = self.history.completed()
        if not done:
            return []
        mask = pareto_front_mask(self.objective_values())
        return [t for t, keep in zip(done, mask) if keep]

    def objective_values(self) -> np.ndarray:
        """(n, k) matrix of canonical scores of completed trials."""
        return np.array(
            [[obj.score(t.metric(obj.name)) for obj in self.objectives] for t in self.history.completed()]
        )


class ParEGOOptimizer(_ScalarizingBO):
    """Augmented Tchebycheff: g(f) = max_i θᵢ fᵢ + ρ Σ θᵢ fᵢ."""

    #: Weight of the sum term that breaks the Tchebycheff max's ties.
    RHO = 0.05

    def _scalarize(self, F_norm: np.ndarray, weights: np.ndarray) -> np.ndarray:
        weighted = F_norm * weights
        return weighted.max(axis=1) + self.RHO * weighted.sum(axis=1)


class LinearScalarizationOptimizer(_ScalarizingBO):
    """Plain weighted sum — misses concave Pareto regions (the lesson)."""

    def _scalarize(self, F_norm: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return (F_norm * weights).sum(axis=1)
