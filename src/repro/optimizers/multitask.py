"""Multi-task optimization with one coregionalised GP (slide 59).

"Can we reuse the data collected while optimizing f₁(x) when optimizing
f₂(x)? Yes! Idea: exploit the correlations between f₁ … f_k. Separable
multi-output kernels: K((i,x),(j,x')) = K_t(i,j) · K_x(x,x')."

That kernel is :class:`~repro.optimizers.kernels.Coregionalized` (the
intrinsic coregionalisation model), so :class:`MultiTaskOptimizer` is
:class:`~repro.optimizers.bo.BayesianOptimizer` with the task index as its
column, on rows ``[x, task]``. It optimizes several objectives
*simultaneously* — each suggestion targets one task's EI, but every
observation of any task sharpens all tasks' models.
"""

from __future__ import annotations

import numpy as np

from ..core import Objective, Trial
from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace
from .bo import BayesianOptimizer

__all__ = ["MultiTaskOptimizer"]


class MultiTaskOptimizer(BayesianOptimizer):
    """Optimize k objectives at once, sharing data through an ICM GP.

    BO with the task index as a coregionalised column: every completed trial
    is one row per task, and candidates are scored at the *focus task*, which
    each ``suggest`` round-robins. Every ``observe`` carries all reported task
    metrics into the one shared model, so a trial run for task 0 still
    teaches task 1's surrogate (slide 59's whole point).
    """

    supports_multi_objective = True

    def __init__(
        self,
        space: ConfigurationSpace,
        objectives: list[Objective],
        n_init: int = 8,
        n_candidates: int = 256,
        seed: int | None = None,
    ) -> None:
        if len(objectives) < 2:
            raise OptimizerError("MultiTaskOptimizer needs >= 2 objectives")
        super().__init__(space, n_init=n_init, n_candidates=n_candidates, objectives=objectives, seed=seed)
        self._use_column(len(objectives))
        self._focus = 0
        self._task_mean = self._task_std = np.zeros(len(objectives))

    def _before_model(self) -> Configuration | None:
        self._focus = (self._focus + 1) % len(self.objectives)
        return super()._before_model()

    def _training_set(self) -> tuple[list[Trial], np.ndarray, np.ndarray]:
        """Trial-major rows (every task of trial 0, then of trial 1, …); a
        completed trial always reports every objective (observe() checks)."""
        trials = self.history.completed()
        F = np.array([self.history.scores(obj) for obj in self.objectives])
        k = len(F)
        # Each task standardised on its own, so tasks in different units coexist.
        self._task_mean, self._task_std = F.mean(axis=1), F.std(axis=1)
        self._task_std[self._task_std == 0.0] = 1.0
        Y = (F - self._task_mean[:, None]) / self._task_std[:, None]
        X = np.repeat(self._encoding_cache.encode_trials(trials), k, axis=0)
        return [t for t in trials for _ in range(k)], X, Y.T.ravel()

    def _trial_column(self, trials: list[Trial]) -> np.ndarray:
        return np.tile(np.arange(len(self.objectives)), len(trials) // len(self.objectives))

    def _candidate_column(self, cands: list[Configuration]) -> np.ndarray:
        return np.full(len(cands), self._focus)

    def _scores(self, cands: list[Configuration]) -> np.ndarray:
        # EI in the focus task's raw units: ``xi`` is not scale-free.
        t = self._focus
        mean, std = self.model.predict(self._features(cands), return_std=True)
        mean, std = mean * self._task_std[t] + self._task_mean[t], std * self._task_std[t]
        return self.acquisition(mean, std, float(self.history.scores(self.objectives[t]).min()))

    def best_for(self, task: int) -> Trial:
        """Best trial according to objective ``task``."""
        return self.history.best(self.objectives[task])
