"""Actor-critic with linear function approximation (slide 79).

"Actor-Critic: policy function π(s, a) … value function V(s)." The actor
is a linear-Gaussian policy over the unit-encoded numeric knobs (the
continuous-action formulation CDBTune uses with DDPG, here in its simplest
stable form); the critic is a linear value function trained by TD(0).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import OptimizerError, SpaceError
from ..space import Configuration, ConfigurationSpace
from ..core.optimizer import Trial
from ..space.params import CategoricalParameter
from .agent import OnlinePolicy

__all__ = ["ActorCriticTuner"]

#: Gradient step sizes of the actor and the critic.
ACTOR_LR = 0.05
CRITIC_LR = 0.10
#: Discount factor.
GAMMA = 0.9


class ActorCriticTuner(OnlinePolicy):
    """Linear-Gaussian actor + linear TD(0) critic over numeric knobs.

    Categorical knobs stay at their defaults (combine with a bandit layer —
    see :class:`~repro.online.hybrid.HybridBanditTuner` — to tune those).

    Parameters
    ----------
    sigma:
        Exploration noise of the Gaussian policy, annealed by
        ``sigma_decay`` each step.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        knobs: Sequence[str] | None = None,
        sigma: float = 0.15,
        sigma_decay: float = 0.997,
        sigma_min: float = 0.02,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, seed=seed)
        names = list(knobs) if knobs is not None else list(space.names)
        self.knobs = [
            n for n in names if not isinstance(space[n], CategoricalParameter)
        ]
        if not self.knobs:
            raise OptimizerError("actor-critic needs at least one numeric knob")
        if sigma <= 0:
            raise OptimizerError(f"sigma must be positive, got {sigma}")
        self.sigma = float(sigma)
        self.sigma_decay = float(sigma_decay)
        self.sigma_min = float(sigma_min)

        self._n_actions = len(self.knobs)
        self._W: np.ndarray | None = None  # actor weights (actions × features)
        self._b: np.ndarray | None = None  # actor bias = initial knob positions
        self._v: np.ndarray | None = None  # critic weights

    def _features(self, observation: np.ndarray) -> np.ndarray:
        obs = np.asarray(observation, dtype=float).ravel()
        return np.concatenate([[1.0], obs])  # bias feature

    def _lazy_init(self, phi: np.ndarray) -> None:
        if self._W is not None:
            return
        self._W = np.zeros((self._n_actions, len(phi)))
        default = self.space.default_configuration()
        self._b = np.array([self.space[k].to_unit(default[k]) for k in self.knobs])
        self._v = np.zeros(len(phi))

    def _mean_action(self, phi: np.ndarray) -> np.ndarray:
        return np.clip(self._W @ phi + self._b, 0.0, 1.0)

    # -- OnlinePolicy --------------------------------------------------------
    def propose(self, observation: np.ndarray) -> tuple[Configuration, tuple[np.ndarray, ...]]:
        phi = self._features(observation)
        self._lazy_init(phi)
        mean = self._mean_action(phi)
        action = np.clip(mean + self.rng.normal(0.0, self.sigma, self._n_actions), 0.0, 1.0)
        memo = (phi, action, mean)
        values = self.space.default_configuration().as_dict()
        for k, u in zip(self.knobs, action):
            values[k] = self.space[k].from_unit(float(u))
        try:
            return self.space.make(values), memo
        except SpaceError:
            # Infeasible joint move: fall back to the mean action.
            for k, u in zip(self.knobs, mean):
                values[k] = self.space[k].from_unit(float(u))
            return self.space.make(values, check_constraints=False), memo

    def feedback(self, trial: Trial, memo: tuple[np.ndarray, ...], reward: float) -> None:
        phi, action, mean = memo
        # TD(0) critic update, bootstrapping from the proposal's own features, not the
        # next ones: the next observation is not known at tell (a known fault, ROADMAP item 21).
        v_s = float(self._v @ phi)
        delta = float(np.clip(reward + GAMMA * v_s - v_s, -2.0, 2.0))
        self._v += CRITIC_LR * delta * phi
        # Policy gradient for a Gaussian policy: ∇ log π ∝ (a − μ)/σ².
        # Normalised by σ (not σ²) — a natural-gradient-style step that keeps
        # update magnitudes O(1) as exploration noise anneals.
        grad_mean = (action - mean) / self.sigma
        self._W += ACTOR_LR * delta * np.outer(grad_mean, phi)
        self._b += ACTOR_LR * delta * grad_mean
        self._b = np.clip(self._b, 0.0, 1.0)
        self.sigma = max(self.sigma_min, self.sigma * self.sigma_decay)

    def greedy_config(self, observation: np.ndarray) -> Configuration:
        """The deterministic (mean) policy output — for deployment."""
        phi = self._features(observation)
        self._lazy_init(phi)
        mean = self._mean_action(phi)
        values = self.space.default_configuration().as_dict()
        for k, u in zip(self.knobs, mean):
            values[k] = self.space[k].from_unit(float(u))
        return self.space.make(values, check_constraints=False)
