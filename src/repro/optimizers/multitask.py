"""Multi-task optimization with one coregionalised GP (slide 59).

"Can we reuse the data collected while optimizing f₁(x) when optimizing
f₂(x)? Yes! Idea: exploit the correlations between f₁ … f_k. Separable
multi-output kernels: K((i,x),(j,x')) = K_t(i,j) · K_x(x,x')."

That kernel is :class:`~repro.optimizers.kernels.Coregionalized` (the
intrinsic coregionalisation model), and the surrogate is the same
:class:`~repro.optimizers.gp.GaussianProcessRegressor` BO uses, on rows
``[x, task]``. :class:`MultiTaskOptimizer` optimizes several objectives
*simultaneously* — each suggestion targets one task's EI, but every
observation of any task sharpens all tasks' models.
"""

from __future__ import annotations

import numpy as np

from ..core import Objective, Trial
from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace
from ..space.encoding import OrdinalEncoder
from .gp import GaussianProcessRegressor
from .kernels import Coregionalized, Matern, WhiteKernel
from .model_based import ModelBasedOptimizer

__all__ = ["MultiTaskOptimizer"]


class MultiTaskOptimizer(ModelBasedOptimizer):
    """Optimize k objectives at once, sharing data through an ICM GP.

    Each ``suggest`` round-robins the *focus task* and maximises that
    task's EI; every ``observe`` carries all reported task metrics into
    one shared model, so a trial run for task 0 still teaches task 1's
    surrogate (slide 59's whole point).
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
        kernel = Coregionalized(Matern(0.3, nu=2.5), len(objectives)) + WhiteKernel(1e-3)
        super().__init__(
            space,
            encoder=OrdinalEncoder(space),
            model=GaussianProcessRegressor(kernel, seed=seed),
            n_init=n_init,
            n_candidates=n_candidates,
            objectives=objectives,
            seed=seed,
        )
        self._focus = 0
        self._task_mean = self._task_std = np.zeros(len(objectives))

    def _before_model(self) -> Configuration | None:
        self._focus = (self._focus + 1) % len(self.objectives)
        return super()._before_model()

    def _fit(self) -> bool:
        # Trial-major rows (every task of trial 0, then of trial 1, …); a
        # completed trial always reports every objective (observe() checks).
        X = self._encoding_cache.encode_trials(self.history.completed())
        F = np.array([self.history.scores(obj) for obj in self.objectives])
        k, n = F.shape
        # Each task standardised on its own, so tasks in different units coexist.
        self._task_mean, self._task_std = F.mean(axis=1), F.std(axis=1)
        self._task_std[self._task_std == 0.0] = 1.0
        Y = (F - self._task_mean[:, None]) / self._task_std[:, None]
        self.model.fit(np.column_stack([np.repeat(X, k, axis=0), np.tile(np.arange(k), n)]), Y.T.ravel())
        return True

    def _candidates(self) -> list[Configuration]:
        return self.space.sample_many(self.n_candidates, self.rng)

    def _pick(self, cands: list[Configuration]) -> Configuration:
        # EI in the focus task's raw units: ``xi`` is not scale-free.
        t = self._focus
        best = float(self.history.scores(self.objectives[t]).min())
        X = self.encoder.encode_many(cands)
        mean, std = self.model.predict(np.column_stack([X, np.full(len(X), t)]), return_std=True)
        mean, std = mean * self._task_std[t] + self._task_mean[t], std * self._task_std[t]
        return cands[int(np.argmax(self.acquisition(mean, std, best)))]

    def best_for(self, task: int) -> Trial:
        """Best trial according to objective ``task``."""
        return self.history.best(self.objectives[task])
