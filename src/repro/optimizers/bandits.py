"""Multi-armed bandits over finite configuration sets.

Slide 51 notes that bandits are a natural fit for discrete knobs because
"AFs like UCB and EI do not require sampling from posterior". Arms are
configurations (supplied, or sampled once up front); policies are
ε-greedy, UCB1, and Gaussian Thompson sampling. These are also the
building block for OPPerTune-style hybrid online tuners
(:mod:`repro.online.hybrid`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core import Objective, Optimizer, Trial
from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace

__all__ = ["MultiArmedBanditOptimizer", "BanditArmStats"]

#: Exploration rate of the ε-greedy policy.
EPSILON = 0.1
#: Exploration weight of UCB1.
UCB_C = 2.0


class BanditArmStats:
    """Running reward statistics of one arm (Welford updates)."""

    __slots__ = ("pulls", "mean", "_m2")

    def __init__(self) -> None:
        self.pulls = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, reward: float) -> None:
        self.pulls += 1
        delta = reward - self.mean
        self.mean += delta / self.pulls
        self._m2 += delta * (reward - self.mean)

    @property
    def variance(self) -> float:
        return self._m2 / (self.pulls - 1) if self.pulls > 1 else 1.0


class MultiArmedBanditOptimizer(Optimizer):
    """Bandit over a finite arm set of configurations.

    Rewards are the *negated canonical scores* (so better metric = higher
    reward) normalised by a running scale, making policies robust to the
    objective's units. A suggestion's memo is its arm's index, so each tell
    credits the arm that was pulled: equal arms (a sampled arm set on a
    small discrete space holds some) are credited apart, and a trial not
    pulled here credits none.

    Parameters
    ----------
    arms:
        Explicit configurations to choose among; when None, ``n_arms``
        random feasible configurations are drawn once.
    policy:
        "epsilon" | "ucb1" | "thompson".
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        arms: Sequence[Configuration] | None = None,
        n_arms: int = 16,
        policy: str = "ucb1",
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, objectives, seed=seed)
        if policy not in ("epsilon", "ucb1", "thompson"):
            raise OptimizerError(f"unknown policy {policy!r}")
        self.arms = list(arms if arms is not None else space.sample_many(n_arms, self.rng))
        if len(self.arms) < 2:
            raise OptimizerError("need at least 2 arms")
        self.policy = policy
        self.stats = [BanditArmStats() for _ in self.arms]
        self._scale = 1.0

    @property
    def total_pulls(self) -> int:
        return sum(s.pulls for s in self.stats)

    def _select_arm(self) -> int:
        # Pull every arm once first.
        for i, s in enumerate(self.stats):
            if s.pulls == 0:
                return i
        if self.policy == "epsilon":
            if self.rng.random() < EPSILON:
                return int(self.rng.integers(len(self.arms)))
            return int(np.argmax([s.mean for s in self.stats]))
        if self.policy == "ucb1":
            total = self.total_pulls
            ucb = [
                s.mean + UCB_C * math.sqrt(math.log(total) / s.pulls)
                for s in self.stats
            ]
            return int(np.argmax(ucb))
        # Gaussian Thompson sampling.
        draws = [
            self.rng.normal(s.mean, math.sqrt(s.variance / s.pulls))
            for s in self.stats
        ]
        return int(np.argmax(draws))

    def _suggest(self) -> tuple[Configuration, int]:
        idx = self._select_arm()
        return self.arms[idx], idx

    def _on_observe(self, trial: Trial, memo: int | None) -> None:
        if memo is None:
            return  # not pulled here (warm start, resume): credits no arm, even an equal one
        obj = self.objective
        score = obj.score(trial.metric(obj.name))
        self._scale = max(self._scale * 0.99, abs(score), 1e-9)
        self.stats[memo].update(-score / self._scale)

    def _digest_state(self) -> dict[str, object]:
        return {
            "pulls": [s.pulls for s in self.stats],
            "means": [round(s.mean, 12) for s in self.stats],
            "scale": round(self._scale, 12),
        }

    def best_arm(self) -> Configuration:
        """Arm with the best empirical mean reward."""
        pulled = [(s.mean, i) for i, s in enumerate(self.stats) if s.pulls > 0]
        if not pulled:
            raise OptimizerError("no arm has been pulled yet")
        return self.arms[max(pulled)[1]]
