"""AutoSteer-style greedy online search (slide 81, slide 84).

"AutoSteer: applies greedy search to incrementally improve configurations,
balancing exploration & exploitation." The policy holds a current
configuration, measures it until it has a reward estimate, then proposes
single-knob moves, adopts a move when its own measured reward beats the
incumbent's estimate, and reverts otherwise —
cautious, explainable ("we changed exactly one knob and it helped"), and
inherently regression-limited.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.optimizer import Trial
from ..exceptions import OptimizerError, SpaceError
from ..space import Configuration, ConfigurationSpace
from .agent import OnlinePolicy

__all__ = ["GreedyOnlineTuner"]

#: Smoothing for the incumbent's reward estimate.
EMA = 0.5


class GreedyOnlineTuner(OnlinePolicy):
    """Hill climbing with single-knob moves and revert-on-regression.

    A proposal's memo says whether it is a move or an incumbent measurement.

    Parameters
    ----------
    step:
        Unit-space move size per numeric-knob proposal.
    patience:
        Consecutive failed moves before the step size grows (escape
        plateaus) — the "balancing exploration & exploitation" dial.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        knobs: Sequence[str] | None = None,
        step: float = 0.1,
        patience: int = 6,
        seed: int | None = None,
    ) -> None:
        if not 0.0 < step <= 0.5:
            raise OptimizerError(f"step must be in (0, 0.5], got {step}")
        if patience < 1:
            raise OptimizerError(f"patience must be >= 1, got {patience}")
        super().__init__(space, seed=seed)
        self.knobs = list(knobs) if knobs is not None else list(space.names)
        for k in self.knobs:
            if k not in space:
                raise OptimizerError(f"unknown knob {k!r}")
        self.step = float(step)
        self.base_step = float(step)
        self.patience = int(patience)
        self.current = space.default_configuration()
        self._current_reward: float | None = None
        self._fails = 0
        self.moves_adopted = 0
        self.moves_reverted = 0

    def _propose_move(self) -> Configuration:
        name = self.knobs[int(self.rng.integers(len(self.knobs)))]
        param = self.space[name]
        values = self.current.as_dict()
        if param.is_numeric:
            u = param.to_unit(values[name]) + float(self.rng.choice([-1.0, 1.0])) * self.step
            values[name] = param.from_unit(float(np.clip(u, 0.0, 1.0)))
        else:
            values[name] = param.neighbor(values[name], self.rng)
        try:
            return self.space.make(values)
        except SpaceError:
            return self.current

    def propose(self, observation: np.ndarray) -> tuple[Configuration, bool]:
        if self._current_reward is None:
            return self.current, False
        return self._propose_move(), True

    def feedback(self, trial: Trial, is_move: bool, reward: float) -> None:
        if not is_move:
            # Incumbent measurement: update its running estimate.
            if self._current_reward is None:
                self._current_reward = reward
            else:
                self._current_reward = EMA * self._current_reward + (1 - EMA) * reward
            return
        # Verdict on the attempted move.
        if reward > self._current_reward:
            self.current = trial.config
            self._current_reward = reward
            self._fails = 0
            self.step = self.base_step
            self.moves_adopted += 1
        else:
            self._fails += 1
            self.moves_reverted += 1
            if self._fails >= self.patience:
                self.step = min(0.5, self.step * 2.0)  # widen the search
                self._fails = 0
