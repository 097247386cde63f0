"""Multi-task optimization with a multi-output GP (slide 59).

"Can we reuse the data collected while optimizing f₁(x) when optimizing
f₂(x)? Yes! Idea: exploit the correlations between f₁ … f_k. Separable
multi-output kernels: K((i,x),(j,x')) = K_t(i,j) · K_x(x,x')."

:class:`MultiOutputGP` implements the intrinsic coregionalisation model
(ICM): a free-form task covariance (learned as a low-rank B Bᵀ + diag)
multiplying a shared input kernel. :class:`MultiTaskOptimizer` uses it to
optimize several objectives *simultaneously* — each suggestion targets one
task's EI, but every observation of any task sharpens all tasks' models.
"""

from __future__ import annotations

import numpy as np

from ..core import Objective, Trial
from ..exceptions import NotFittedError, OptimizerError
from ..space import Configuration, ConfigurationSpace
from ..space.encoding import OrdinalEncoder
from ._dense import cholesky, minimize_box, tri_inv
from .kernels import Matern
from .model_based import ModelBasedOptimizer

__all__ = ["MultiOutputGP", "MultiTaskOptimizer"]


class MultiOutputGP:
    """ICM multi-output GP: K((i,x),(j,x')) = B[i,j] · K_x(x,x') + noise.

    ``B = W Wᵀ + diag(v)`` with rank-1 W — enough to express positive and
    partial correlations between a handful of tasks while staying cheap.
    """

    def __init__(
        self,
        n_tasks: int,
        seed: int | None = None,
    ) -> None:
        if n_tasks < 2:
            raise OptimizerError(f"need >= 2 tasks, got {n_tasks}")
        self.n_tasks = int(n_tasks)
        self.input_kernel = Matern(0.3, nu=2.5)
        self.noise = 1e-3  # initial value; learned with the kernel hyperparameters
        self.rng = np.random.default_rng(seed)
        # Task covariance parameters: W (n_tasks,) rank-1 + diagonal v.
        self._w = np.ones(self.n_tasks)
        self._v = np.full(self.n_tasks, 0.1)
        self._X: np.ndarray | None = None
        self._tasks: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._L_inv: np.ndarray | None = None  # inverse of K's lower Cholesky factor
        self._y_mean = np.zeros(self.n_tasks)
        self._y_std = np.ones(self.n_tasks)

    # -- task covariance -------------------------------------------------------
    def task_covariance(self) -> np.ndarray:
        return np.outer(self._w, self._w) + np.diag(np.maximum(self._v, 1e-6))

    def task_correlation(self) -> np.ndarray:
        B = self.task_covariance()
        d = np.sqrt(np.diag(B))
        return B / np.outer(d, d)

    # -- fitting ------------------------------------------------------------------
    def fit(self, X: np.ndarray, tasks: np.ndarray, y: np.ndarray) -> "MultiOutputGP":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tasks = np.asarray(tasks, dtype=int).ravel()
        y = np.asarray(y, dtype=float).ravel()
        if not (len(X) == len(tasks) == len(y)):
            raise OptimizerError("X, tasks, y must align")
        if len(X) == 0:
            raise OptimizerError("cannot fit to zero observations")
        if tasks.min() < 0 or tasks.max() >= self.n_tasks:
            raise OptimizerError(f"task ids must be in [0, {self.n_tasks})")
        # Per-task standardisation so tasks with different units coexist.
        y_std = y.copy().astype(float)
        for t in range(self.n_tasks):
            mask = tasks == t
            if mask.any():
                self._y_mean[t] = float(y[mask].mean())
                self._y_std[t] = float(y[mask].std()) or 1.0
            y_std[mask] = (y[mask] - self._y_mean[t]) / self._y_std[t]
        self._X, self._tasks, self._y = X, tasks, y_std
        if len(X) >= 4:
            self._optimize()
        self._recompute()
        return self

    def _theta(self) -> np.ndarray:
        return np.concatenate([
            self.input_kernel.theta,
            np.log(np.abs(self._w) + 1e-6),
            np.log(self._v),
            [np.log(self.noise)],
        ])

    def _set_theta(self, theta: np.ndarray) -> None:
        nk = len(self.input_kernel.theta)
        self.input_kernel.theta = theta[:nk]
        self._w = np.exp(theta[nk:nk + self.n_tasks])
        self._v = np.exp(theta[nk + self.n_tasks:nk + 2 * self.n_tasks])
        self.noise = float(np.exp(theta[-1]))

    def _nll_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """NLL (up to its constant) and its gradient in θ.

        K = B[t,t] ⊙ Kx + (noise + 1e-8)·I and ∂NLL/∂θ_j = −½ Σ M ⊙ ∂K/∂θ_j with
        M = ααᵀ − K⁻¹. The input kernel's share is its own contraction of
        M ⊙ B[t,t]; the task parameters only enter through B, so theirs come
        from G = Eᵀ(M ⊙ Kx)E, M ⊙ Kx summed over each pair of tasks (E the
        one-hot task indicator): ∂/∂log w_i = 2 w_i (Gw)_i, ∂/∂log v_i = v_i G_ii
        (the bounds keep v above the 1e-6 floor), ∂/∂log noise = noise · tr M.
        """
        self._set_theta(theta)
        Kx, contract = self.input_kernel(self._X, eval_gradient=True)
        B_tt = self.task_covariance()[np.ix_(self._tasks, self._tasks)]
        K = B_tt * Kx + (self.noise + 1e-8) * np.eye(len(Kx))
        try:
            L = cholesky(K)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros_like(theta)
        L_inv = tri_inv(L)
        alpha = L_inv.T @ (L_inv @ self._y)
        nll = 0.5 * float(self._y @ alpha) + float(np.log(np.diag(L)).sum())
        if not np.isfinite(nll):
            return 1e25, np.zeros_like(theta)
        M = np.outer(alpha, alpha) - L_inv.T @ L_inv
        E = np.eye(self.n_tasks)[self._tasks]
        G = E.T @ (M * Kx) @ E
        grad = np.concatenate([
            contract(M * B_tt),
            2.0 * self._w * (G @ self._w),
            self._v * np.diag(G),
            [self.noise * np.trace(M)],
        ])
        return nll, -0.5 * grad

    def _optimize(self) -> None:
        bounds = np.vstack([
            self.input_kernel.bounds,
            np.tile([-3.0, 3.0], (self.n_tasks, 1)),  # log |w|
            np.tile([-6.0, 2.0], (self.n_tasks, 1)),  # log v
            [[np.log(1e-6), np.log(1.0)]],  # log noise
        ])
        self._set_theta(minimize_box(self._nll_and_grad, self._theta(), bounds)[0])

    def _full_kernel(self, X: np.ndarray, tasks: np.ndarray, X2=None, tasks2=None) -> np.ndarray:
        X2 = X if X2 is None else X2
        tasks2 = tasks if tasks2 is None else tasks2
        B = self.task_covariance()
        Kx = self.input_kernel(X, X2)
        K = B[np.ix_(tasks, tasks2)] * Kx
        if X2 is X and tasks2 is tasks:
            K = K + self.noise * np.eye(len(X))
        return K

    def _recompute(self) -> None:
        K = self._full_kernel(self._X, self._tasks)
        self._L_inv = tri_inv(cholesky(K + 1e-8 * np.eye(len(K))))
        self._alpha = self._L_inv.T @ (self._L_inv @ self._y)

    # -- prediction -------------------------------------------------------------
    def predict(self, X: np.ndarray, task: int, return_std: bool = False):
        if self._X is None:
            raise NotFittedError("fit the multi-output GP first")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        tq = np.full(len(X), int(task))
        Ks = self._full_kernel(self._X, self._tasks, X, tq)
        mean = Ks.T @ self._alpha * self._y_std[task] + self._y_mean[task]
        if not return_std:
            return mean
        v = self._L_inv @ Ks
        prior = self.task_covariance()[task, task] * self.input_kernel.diag(X)
        var = prior - np.sum(v * v, axis=0)
        return mean, np.sqrt(np.maximum(var, 1e-12)) * self._y_std[task]


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
        super().__init__(
            space,
            encoder=OrdinalEncoder(space),
            model=MultiOutputGP(len(objectives), seed=seed),
            n_init=n_init,
            n_candidates=n_candidates,
            objectives=objectives,
            seed=seed,
        )
        self._focus = 0

    def _before_model(self) -> Configuration | None:
        self._focus = (self._focus + 1) % len(self.objectives)
        return super()._before_model()

    def _fit(self) -> bool:
        # Trial-major rows (every task of trial 0, then of trial 1, …); a
        # completed trial always reports every objective (observe() checks).
        X = self._encoding_cache.encode_trials(self.history.completed())
        F = np.column_stack([self.history.scores(obj) for obj in self.objectives])
        n, k = F.shape
        self.model.fit(np.repeat(X, k, axis=0), np.tile(np.arange(k), n), F.ravel())
        return True

    def _candidates(self) -> list[Configuration]:
        return self.space.sample_many(self.n_candidates, self.rng)

    def _pick(self, cands: list[Configuration]) -> Configuration:
        best = float(self.history.scores(self.objectives[self._focus]).min())
        mean, std = self.model.predict(self.encoder.encode_many(cands), self._focus, return_std=True)
        return cands[int(np.argmax(self.acquisition(mean, std, best)))]

    def best_for(self, task: int) -> Trial:
        """Best trial according to objective ``task``."""
        return self.history.best(self.objectives[task])
