"""Tabular Q-learning for online knob tuning (slide 79).

"Q-Learning: Q(s, a) — the expected reward when taking action a at state
s." Following CDBTune/QTune's framing, the action space is knob
*adjustments* (nudge one knob up or down, or hold), states are discretized
observation vectors, and learning is standard ε-greedy temporal-difference.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from ..exceptions import OptimizerError, SpaceError
from ..space import Configuration, ConfigurationSpace
from ..core.optimizer import Trial
from ..space.params import CategoricalParameter
from .agent import OnlinePolicy

__all__ = ["QLearningTuner"]

#: Learning rate and discount of the TD update.
ALPHA = 0.3
GAMMA = 0.8
#: Discretization resolution for each observation dimension.
N_STATE_BINS = 3


class QLearningTuner(OnlinePolicy):
    """ε-greedy tabular Q-learning over single-knob adjustment actions.

    Parameters
    ----------
    space:
        Knobs under control.
    knobs:
        Subset of knob names to act on (default: all).
    step:
        Adjustment size in unit-space per action.
    epsilon:
        Exploration rate. ``epsilon_decay`` multiplies ε each step (anneal
        exploration as confidence grows).
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        knobs: Sequence[str] | None = None,
        step: float = 0.12,
        epsilon: float = 0.25,
        epsilon_decay: float = 0.995,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, seed=seed)
        self.knobs = list(knobs) if knobs is not None else list(space.names)
        for k in self.knobs:
            if k not in space:
                raise OptimizerError(f"unknown knob {k!r}")
        if not 0.0 < step <= 1.0:
            raise OptimizerError(f"step must be in (0, 1], got {step}")
        self.step = float(step)
        self.epsilon = float(epsilon)
        self.epsilon_decay = float(epsilon_decay)
        # Actions: (knob_index, direction) plus a no-op.
        self._actions: list[tuple[int, int]] = [(-1, 0)]
        for i, _ in enumerate(self.knobs):
            self._actions.extend([(i, +1), (i, -1)])
        self.q: dict[tuple, np.ndarray] = defaultdict(lambda: np.zeros(len(self._actions)))
        self._config = space.default_configuration()

    # -- state/action plumbing ----------------------------------------------
    def _state_key(self, observation: np.ndarray) -> tuple:
        bins = np.clip((np.asarray(observation) * N_STATE_BINS).astype(int), 0, N_STATE_BINS - 1)
        return tuple(int(b) for b in bins)

    def _apply_action(self, action: int) -> Configuration:
        knob_idx, direction = self._actions[action]
        if knob_idx < 0:
            return self._config
        name = self.knobs[knob_idx]
        param = self.space[name]
        values = self._config.as_dict()
        if isinstance(param, CategoricalParameter):
            values[name] = param.neighbor(values[name], self.rng)
        else:
            u = param.to_unit(values[name]) + direction * self.step
            values[name] = param.from_unit(float(np.clip(u, 0.0, 1.0)))
        try:
            return self.space.make(values)
        except SpaceError:
            return self._config  # infeasible move: hold position

    # -- OnlinePolicy -----------------------------------------------------------
    def propose(self, observation: np.ndarray) -> tuple[Configuration, tuple[tuple, int]]:
        state = self._state_key(observation)
        if self.rng.random() < self.epsilon:
            action = int(self.rng.integers(len(self._actions)))
        else:
            qvals = self.q[state]
            action = int(self.rng.choice(np.flatnonzero(qvals == qvals.max())))
        self._config = self._apply_action(action)
        return self._config, (state, action)

    def feedback(self, trial: Trial, memo: tuple[tuple, int], reward: float) -> None:
        state, action = memo
        # Bootstraps from the proposal's own state, not the next one: the next observation
        # is not known at tell (a known fault, ROADMAP item 21).
        td_target = reward + GAMMA * float(self.q[state].max())
        self.q[state][action] += ALPHA * (td_target - self.q[state][action])
        self.epsilon *= self.epsilon_decay
