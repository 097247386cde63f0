"""Contextual Bayesian optimization — the OnlineTune pattern (slide 82).

"OnlineTune: dynamically adapts to workload changes by embedding contextual
features (e.g. data size, query plans) into a Bayesian Optimization
framework." :class:`ContextualBayesianOptimizer` is BO whose model rows carry
the *observation/context* vector as continuous columns beside the encoded
configuration, read by one wider stationary kernel: one model shares strength
across workload phases, and candidates are scored at the live context.
"""

from __future__ import annotations

import numpy as np

from ..core import Trial
from ..optimizers.acquisition import trust_region
from ..optimizers.bo import BayesianOptimizer
from ..optimizers.gp import default_kernel
from ..space import Configuration, ConfigurationSpace
from .adapters import OptimizerPolicy
from .agent import OnlinePolicy

__all__ = ["ContextualBOTuner", "ContextualBayesianOptimizer", "StaticConfigPolicy"]

#: Probability of scoring a global random candidate set instead of the trust region.
EXPLORE_PROB = 0.10


class StaticConfigPolicy(OnlinePolicy):
    """Baseline: always apply one fixed configuration (offline-tuned or default)."""

    def __init__(self, config: Configuration) -> None:
        self.config = config

    def propose(self, observation: np.ndarray) -> Configuration:
        return self.config

    def feedback(self, observation: np.ndarray, config: Configuration, reward: float) -> None:
        pass  # nothing to learn


class ContextualBayesianOptimizer(BayesianOptimizer):
    """BO over (config ⊕ context), scored at the live context.

    A trial's context is its ``context["observation"]``; :meth:`set_observation`
    gives the live one before each suggestion. Safety comes from the candidates:
    the initial design circles the space default, then a trust region around
    the best configuration of similar contexts, with :data:`EXPLORE_PROB` of
    global draws. (Under BO's 70 %-global pool, E18 (d)'s powered lower end
    falls to 0.54–0.58.)
    """

    def __init__(
        self, space: ConfigurationSpace, n_init: int = 6, n_candidates: int = 128, seed: int | None = None
    ) -> None:
        super().__init__(space, n_init=n_init, n_candidates=n_candidates, seed=seed)
        self.observation: np.ndarray | None = None

    def set_observation(self, observation: np.ndarray) -> None:
        """Score the next suggestions at ``observation``; the first one fixes the context width."""
        observation = np.asarray(observation, dtype=float).ravel()
        if self.observation is None:
            self.model.kernel = default_kernel(self.encoder.n_features + len(observation))
        self.observation = observation

    def _trial_column(self, trials: list[Trial]) -> np.ndarray:
        return np.array([t.context["observation"] for t in trials], dtype=float)

    def _candidate_column(self, cands: list[Configuration]) -> np.ndarray:
        return np.tile(self.observation, (len(cands), 1))

    def _before_model(self) -> Configuration | None:
        if len(self.history) < self.n_init:
            return self.space.neighbor(self.space.default_configuration(), self.rng, scale=0.1)
        return None

    def _candidates(self) -> list[Configuration]:
        if self.rng.random() < EXPLORE_PROB:
            return self.space.sample_many(self.n_candidates, self.rng)
        # The optimum moves with the workload: anchor on the best of the nearest ~30 % of
        # contexts (ties included), tight enough that a binary context does not collapse.
        trials = self.history.completed()
        dists = np.linalg.norm(self._trial_column(trials) - self.observation, axis=1)
        near = np.flatnonzero(dists <= np.quantile(dists, 0.3))
        anchor = trials[near[np.argmin(self.history.scores()[near])]].config
        return trust_region(self.space, self.rng, anchor, self.n_candidates)


class ContextualBOTuner(OptimizerPolicy):
    """The online policy over :class:`ContextualBayesianOptimizer` (``n_init`` steps near the default first)."""

    def __init__(
        self, space: ConfigurationSpace, n_init: int = 6, n_candidates: int = 128, seed: int | None = None
    ) -> None:
        super().__init__(ContextualBayesianOptimizer(space, n_init=n_init, n_candidates=n_candidates, seed=seed))

    def propose(self, observation: np.ndarray) -> Configuration:
        self.optimizer.set_observation(observation)
        return super().propose(observation)
