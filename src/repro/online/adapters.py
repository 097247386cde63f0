"""Online/offline symmetry: one ask/tell surface over both tuning worlds.

The offline world speaks :class:`~repro.core.optimizer.Optimizer`'s
``suggest(n)`` / ``observe(trial)``; the online world speaks
:class:`~repro.online.agent.OnlinePolicy`'s ``propose(observation)`` /
``feedback(observation, config, reward)``. The two protocols differ only
in what flows alongside the configuration (an observation vector and a
scale-free reward instead of metrics and cost), so thin adapters make
either side usable from the other:

* :class:`OnlinePolicyOptimizer` wraps an online policy behind the
  offline protocol — sessions, executors, and telemetry then drive RL/GA
  policies exactly like any Bayesian optimizer;
* :class:`OptimizerPolicy` wraps an offline optimizer behind the online
  protocol — the :class:`~repro.online.agent.OnlineTuningAgent` (with its
  guardrail) can then deploy GP-BO or random search as its policy.

Where semantics genuinely differ the adapters stay deliberately simple and
say so: rewards are *relative* delta-performance signals, metrics are
*absolute* — the conversions below preserve ordering, not scale.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.optimizer import Objective, Optimizer, Trial
from ..space import Configuration, ConfigurationSpace
from .agent import DeltaReward, OnlinePolicy

__all__ = ["OnlinePolicyOptimizer", "OptimizerPolicy"]

#: Dimensionality of the default (all-zeros) observation vector, matching
#: :meth:`OnlineTuningAgent._default_observation`.
_DEFAULT_OBS_DIM = 6


class OnlinePolicyOptimizer(Optimizer):
    """Adapter: an :class:`OnlinePolicy` exposed as an offline optimizer.

    ``suggest`` obtains an observation (from ``observation_fn``; zeros when
    none is given) and asks the policy to propose; ``observe`` converts the
    trial's objective metric into the online agent's own reward
    (:class:`~repro.online.agent.DeltaReward`) and feeds it back. Failed
    trials feed the flat ``-2.0`` crash reward, mirroring the agent's crash
    handling.

    Semantic caveats (the "thin adapter" contract):

    * policies that alternate incumbent/probe measurements (greedy hill
      climbers) see batch suggestions as consecutive steps — sensible, but
      not identical to their behavior under the online agent;
    * the reward is relative to the run's own history, so warm-starting
      this adapter re-anchors the policy's reward scale.
    """

    accepts_foreign_observations = False

    def __init__(
        self,
        space: ConfigurationSpace,
        policy: OnlinePolicy,
        objectives: Sequence[Objective] | Objective | None = None,
        observation_fn: Callable[[], np.ndarray] | None = None,
        seed: int | None = None,
        crash_penalty_factor: float = 2.0,
    ) -> None:
        super().__init__(space, objectives, seed=seed, crash_penalty_factor=crash_penalty_factor)
        self.policy = policy
        self._observation_fn = observation_fn or (lambda: np.zeros(_DEFAULT_OBS_DIM))
        self._pending: list[tuple[Configuration, np.ndarray]] = []
        self._reward = DeltaReward(self.objective)

    # -- ask ----------------------------------------------------------------
    def _suggest(self) -> Configuration:
        observation = np.asarray(self._observation_fn(), dtype=float)
        config = self.policy.propose(observation)
        self._pending.append((config, observation))
        return config

    # -- tell ---------------------------------------------------------------
    def _pop_observation(self, config: Configuration) -> np.ndarray:
        for i, (pending_config, observation) in enumerate(self._pending):
            if pending_config == config:
                del self._pending[i]
                return observation
        return np.zeros(_DEFAULT_OBS_DIM)

    def _on_observe(self, trial: Trial) -> None:
        observation = self._pop_observation(trial.config)
        if trial.ok:
            reward = self._reward(trial.metric(self.objective.name))
        else:
            reward = -2.0  # the agent's flat crash penalty
        self.policy.feedback(observation, trial.config, reward)


class OptimizerPolicy(OnlinePolicy):
    """Adapter: an offline :class:`Optimizer` exposed as an online policy.

    ``propose`` asks the optimizer for one suggestion; ``feedback`` records
    the (higher-is-better) reward as the optimizer's objective metric via
    ``unscore(-reward)`` so that better rewards rank as better trials. The
    optimizer therefore learns the *ordering* of configurations under the
    agent's reward, not the raw system metric — the honest translation, as
    the online loop never shows the policy absolute metrics either.
    """

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer

    def propose(self, observation: np.ndarray) -> Configuration:
        return self.optimizer.suggest(1)[0]

    def feedback(self, observation: np.ndarray, config: Configuration, reward: float) -> None:
        objective = self.optimizer.objective
        value = objective.unscore(-float(reward))
        self.optimizer.observe(
            config,
            {objective.name: value},
            context={"observation": [float(x) for x in np.asarray(observation).ravel()]},
        )
