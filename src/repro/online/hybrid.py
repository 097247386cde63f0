"""Hybrid bandit tuning — the OPPerTune pattern (slides 81–84).

OPPerTune tunes *discrete* knobs with bandits and *numeric* knobs with a
bandit-feedback gradient method, safely, post-deployment. This module
implements that split:

* categorical/boolean knobs: per-knob exponential-weights (Exp3-style)
  bandits;
* numeric knobs: one-point residual SPSA — perturb around a slowly moving
  center, push the center along reward-weighted perturbations.

Rewards are centred against an exponential moving baseline so the policy
works with any metric scale.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import SpaceError
from ..space import Configuration, ConfigurationSpace
from ..space.params import CategoricalParameter
from .agent import OnlinePolicy

__all__ = ["HybridBanditTuner"]

#: SPSA probe radius in unit-space.
PERTURBATION = 0.08
#: Step size for the numeric centre update.
NUMERIC_LR = 0.15
#: Exponential-weights learning rate for discrete knobs.
BANDIT_LR = 0.3
#: EMA factor of the reward baseline used for centring.
BASELINE_DECAY = 0.9


class _Exp3Bandit:
    """Exponential-weights bandit over one categorical knob."""

    def __init__(self, n_arms: int, lr: float, rng: np.random.Generator) -> None:
        self.weights = np.zeros(n_arms)
        self.lr = lr
        self.rng = rng
        self.last_arm = 0

    def probabilities(self) -> np.ndarray:
        z = self.weights - self.weights.max()
        p = np.exp(z)
        return p / p.sum()

    def pull(self) -> int:
        self.last_arm = int(self.rng.choice(len(self.weights), p=self.probabilities()))
        return self.last_arm

    def update(self, reward: float) -> None:
        p = self.probabilities()[self.last_arm]
        # Importance-weighted gain estimate.
        self.weights[self.last_arm] += self.lr * reward / max(p, 1e-6)
        self.weights -= self.weights.max()  # keep numerically tame


class HybridBanditTuner(OnlinePolicy):
    """Discrete knobs via Exp3, numeric knobs via one-point SPSA."""

    def __init__(
        self,
        space: ConfigurationSpace,
        seed: int | None = None,
    ) -> None:
        self.space = space
        self.rng = np.random.default_rng(seed)

        self.numeric_knobs = [p.name for p in space.parameters if not isinstance(p, CategoricalParameter)]
        self.discrete_knobs = [p.name for p in space.parameters if isinstance(p, CategoricalParameter)]
        default = space.default_configuration()
        self.center = np.array([space[k].to_unit(default[k]) for k in self.numeric_knobs])
        self.bandits = {
            k: _Exp3Bandit(space[k].n_choices, BANDIT_LR, self.rng) for k in self.discrete_knobs
        }
        self._baseline: float | None = None
        self._last_delta: np.ndarray | None = None

    def propose(self, observation: np.ndarray) -> Configuration:
        values = {}
        delta = self.rng.choice([-1.0, 1.0], size=len(self.numeric_knobs))
        probe = np.clip(self.center + PERTURBATION * delta, 0.0, 1.0)
        self._last_delta = delta
        for k, u in zip(self.numeric_knobs, probe):
            values[k] = self.space[k].from_unit(float(u))
        for k, bandit in self.bandits.items():
            values[k] = self.space[k].choices[bandit.pull()]
        try:
            return self.space.make(values)
        except SpaceError:
            # Infeasible probe: propose the unperturbed centre instead.
            for k, u in zip(self.numeric_knobs, self.center):
                values[k] = self.space[k].from_unit(float(u))
            return self.space.make(values, check_constraints=False)

    def feedback(self, observation: np.ndarray, config: Configuration, reward: float) -> None:
        if self._baseline is None:
            self._baseline = reward
        advantage = reward - self._baseline
        self._baseline = BASELINE_DECAY * self._baseline + (1 - BASELINE_DECAY) * reward
        if self._last_delta is not None:
            # One-point gradient estimate: move toward perturbations that
            # beat the baseline, away from the ones that lost to it.
            self.center = np.clip(
                self.center + NUMERIC_LR * advantage * self._last_delta * PERTURBATION,
                0.0,
                1.0,
            )
            self._last_delta = None
        for bandit in self.bandits.values():
            bandit.update(advantage)

    def center_config(self) -> Configuration:
        """The current exploitation configuration (centre + greedy arms)."""
        values = {}
        for k, u in zip(self.numeric_knobs, self.center):
            values[k] = self.space[k].from_unit(float(u))
        for k, bandit in self.bandits.items():
            values[k] = self.space[k].choices[int(np.argmax(bandit.probabilities()))]
        return self.space.make(values, check_constraints=False)
