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

from ..core.optimizer import Trial
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

    def probabilities(self) -> np.ndarray:
        z = self.weights - self.weights.max()
        p = np.exp(z)
        return p / p.sum()

    def pull(self) -> int:
        return int(self.rng.choice(len(self.weights), p=self.probabilities()))

    def update(self, arm: int, reward: float) -> None:
        p = self.probabilities()[arm]
        # Importance-weighted gain estimate.
        self.weights[arm] += self.lr * reward / max(p, 1e-6)
        self.weights -= self.weights.max()  # keep numerically tame


class HybridBanditTuner(OnlinePolicy):
    """Discrete knobs via Exp3, numeric knobs via one-point SPSA.

    A proposal's memo is its perturbation and the arm it pulled per discrete knob.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, seed=seed)

        self.numeric_knobs = [p.name for p in space.parameters if not isinstance(p, CategoricalParameter)]
        self.discrete_knobs = [p.name for p in space.parameters if isinstance(p, CategoricalParameter)]
        default = space.default_configuration()
        self.center = np.array([space[k].to_unit(default[k]) for k in self.numeric_knobs])
        self.bandits = {
            k: _Exp3Bandit(space[k].n_choices, BANDIT_LR, self.rng) for k in self.discrete_knobs
        }
        self._baseline: float | None = None

    def propose(self, observation: np.ndarray) -> tuple[Configuration, tuple[np.ndarray, dict[str, int]]]:
        values = {}
        delta = self.rng.choice([-1.0, 1.0], size=len(self.numeric_knobs))
        probe = np.clip(self.center + PERTURBATION * delta, 0.0, 1.0)
        for k, u in zip(self.numeric_knobs, probe):
            values[k] = self.space[k].from_unit(float(u))
        arms = {k: bandit.pull() for k, bandit in self.bandits.items()}
        for k, arm in arms.items():
            values[k] = self.space[k].choices[arm]
        try:
            return self.space.make(values), (delta, arms)
        except SpaceError:
            # Infeasible probe: propose the unperturbed centre instead.
            for k, u in zip(self.numeric_knobs, self.center):
                values[k] = self.space[k].from_unit(float(u))
            return self.space.make(values, check_constraints=False), (delta, arms)

    def feedback(self, trial: Trial, memo: tuple[np.ndarray, dict[str, int]], reward: float) -> None:
        delta, arms = memo
        if self._baseline is None:
            self._baseline = reward
        advantage = reward - self._baseline
        self._baseline = BASELINE_DECAY * self._baseline + (1 - BASELINE_DECAY) * reward
        # One-point gradient estimate: move toward perturbations that
        # beat the baseline, away from the ones that lost to it.
        self.center = np.clip(self.center + NUMERIC_LR * advantage * delta * PERTURBATION, 0.0, 1.0)
        for k, bandit in self.bandits.items():
            bandit.update(arms[k], advantage)

    def center_config(self) -> Configuration:
        """The current exploitation configuration (centre + greedy arms)."""
        values = {}
        for k, u in zip(self.numeric_knobs, self.center):
            values[k] = self.space[k].from_unit(float(u))
        for k, bandit in self.bandits.items():
            values[k] = self.space[k].choices[int(np.argmax(bandit.probabilities()))]
        return self.space.make(values, check_constraints=False)
