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
from .agent import REWARD, no_observation

__all__ = ["ContextualBayesianOptimizer"]

#: Probability of scoring a global random candidate set instead of the trust region.
EXPLORE_PROB = 0.10


class ContextualBayesianOptimizer(BayesianOptimizer):
    """BO over (config ⊕ context), scored at the live context; it learns the
    step's :data:`~repro.online.agent.REWARD`.

    Each suggestion reads the live context from ``observation_fn`` (an agent
    sets its own; the first one fixes the context width) and keeps it as its
    memo, which the tell writes to the trial's ``context["observation"]`` —
    crashed steps included. Safety comes from the candidates: the initial
    design circles the space default, then a trust region around the best
    configuration of similar contexts, with :data:`EXPLORE_PROB` of global
    draws. (Under BO's 70 %-global pool, E18 (d)'s powered lower end falls
    to 0.54–0.58.)
    """

    #: The live observation; an agent sets its own.
    observation_fn = staticmethod(no_observation)

    def __init__(
        self, space: ConfigurationSpace, n_init: int = 6, n_candidates: int = 128, seed: int | None = None
    ) -> None:
        super().__init__(space, n_init=n_init, n_candidates=n_candidates, objectives=REWARD, seed=seed)
        self.observation: np.ndarray | None = None

    def _suggest(self) -> tuple[Configuration, np.ndarray]:
        observation = np.asarray(self.observation_fn(), dtype=float).ravel()
        if self.observation is None:
            self.model.kernel = default_kernel(self.encoder.n_features + len(observation))
        self.observation = observation
        return super()._suggest(), observation

    def _on_observe(self, trial: Trial, memo: np.ndarray | None) -> None:
        if memo is not None:
            trial.context["observation"] = [float(x) for x in memo]
        super()._on_observe(trial, memo)

    def _trial_column(self, trials: list[Trial]) -> np.ndarray:
        return np.array([t.context["observation"] for t in trials], dtype=float)

    def _candidate_column(self, cands: list[Configuration]) -> np.ndarray:
        return np.tile(self.observation, (len(cands), 1))

    def _before_model(self) -> Configuration | None:
        if len(self.history.completed()) < self.n_init:  # crash scores are imputed from the real ones
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
