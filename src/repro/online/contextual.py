"""Contextual Bayesian optimization — the OnlineTune pattern (slide 82).

"OnlineTune: dynamically adapts to workload changes by embedding contextual
features (e.g. data size, query plans) into a Bayesian Optimization
framework." The GP's input is the concatenation of the *observation/context*
vector and the encoded configuration, so one model shares strength across
workload phases and proposals condition on the current context.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import OptimizerError
from ..optimizers.acquisition import ExpectedImprovement
from ..optimizers.gp import GaussianProcessRegressor, default_kernel
from ..space import Configuration, ConfigurationSpace
from ..space.encoding import OrdinalEncoder
from .agent import OnlinePolicy

__all__ = ["ContextualBOTuner", "StaticConfigPolicy"]

#: Neighbourhood scale of candidate generation (OnlineTune's subspace iteration).
TRUST_RADIUS = 0.15
#: Probability of proposing a global random candidate set instead of the trust region.
EXPLORE_PROB = 0.10
#: GP training window (keeps fitting O(window³) online).
MAX_HISTORY = 120


class StaticConfigPolicy(OnlinePolicy):
    """Baseline: always apply one fixed configuration (offline-tuned or default)."""

    def __init__(self, config: Configuration) -> None:
        self.config = config

    def propose(self, observation: np.ndarray) -> Configuration:
        return self.config

    def feedback(self, observation: np.ndarray, config: Configuration, reward: float) -> None:
        pass  # nothing to learn


class ContextualBOTuner(OnlinePolicy):
    """GP over (context ⊕ config) with EI conditioned on the live context.

    Safety comes from trust-region candidates around the best configuration
    seen *in similar contexts*, plus an exploration budget ε of bolder moves.

    Parameters
    ----------
    n_init:
        Random-ish steps before the model activates.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        n_init: int = 6,
        n_candidates: int = 128,
        seed: int | None = None,
    ) -> None:
        if n_init < 1:
            raise OptimizerError(f"n_init must be >= 1, got {n_init}")
        self.space = space
        self.encoder = OrdinalEncoder(space)
        self.n_init = int(n_init)
        self.n_candidates = int(n_candidates)
        self.acquisition = ExpectedImprovement()
        self.rng = np.random.default_rng(seed)
        self._X: list[np.ndarray] = []  # context ⊕ config rows
        self._rewards: list[float] = []
        self._configs: list[Configuration] = []
        self._model: GaussianProcessRegressor | None = None
        self._steps = 0

    def _row(self, observation: np.ndarray, config: Configuration) -> np.ndarray:
        return np.concatenate([np.asarray(observation, dtype=float).ravel(), self.encoder.encode(config)])

    def _best_config(self, observation: np.ndarray | None = None) -> Configuration:
        """Best configuration seen — in *similar contexts* when one is given.

        The optimum moves with the workload, so the trust region must anchor
        on what worked for contexts like the current one, not globally.
        """
        rewards = np.asarray(self._rewards)
        if observation is not None and len(self._X) > 2:
            obs = np.asarray(observation, dtype=float).ravel()
            ctx = np.stack([row[: len(obs)] for row in self._X])
            dists = np.linalg.norm(ctx - obs, axis=1)
            # Nearest ~30% of contexts (ties included): tight enough that a
            # binary context does not collapse to the global best.
            near = dists <= np.quantile(dists, 0.3)
            if near.sum() >= 1:
                idx = np.flatnonzero(near)
                return self._configs[int(idx[np.argmax(rewards[near])])]
        return self._configs[int(np.argmax(rewards))]

    def propose(self, observation: np.ndarray) -> Configuration:
        self._steps += 1
        if len(self._rewards) < self.n_init:
            base = self.space.default_configuration()
            return self.space.neighbor(base, self.rng, scale=0.1)
        if self._model is None:
            self._fit()
        if self.rng.random() < EXPLORE_PROB:
            cands = [self.space.sample(self.rng) for _ in range(self.n_candidates)]
        else:
            best = self._best_config(observation)
            cands = [best] + [
                self.space.neighbor(best, self.rng, scale=float(self.rng.uniform(0.02, TRUST_RADIUS)))
                for _ in range(self.n_candidates - 1)
            ]
        rows = np.stack([self._row(observation, c) for c in cands])
        mean, std = self._model.predict(rows, return_std=True)
        # The GP models rewards (higher better): negate into minimize scores.
        scores = self.acquisition(-mean, std, -float(np.max(self._rewards)))
        return cands[int(np.argmax(scores))]

    def _fit(self) -> None:
        X = np.stack(self._X[-MAX_HISTORY:])
        y = np.array(self._rewards[-MAX_HISTORY:])
        self._model = GaussianProcessRegressor(kernel=default_kernel(X.shape[1]), seed=0)
        self._model.fit(X, y)

    def feedback(self, observation: np.ndarray, config: Configuration, reward: float) -> None:
        self._X.append(self._row(observation, config))
        self._rewards.append(float(reward))
        self._configs.append(config)
        # Refit lazily but not every step: fitting cost grows cubically.
        if len(self._rewards) >= self.n_init and (self._model is None or self._steps % 5 == 0):
            self._fit()
