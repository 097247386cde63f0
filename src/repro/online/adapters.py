"""Online/offline symmetry: one ask/tell surface over both tuning worlds.

The offline world speaks :class:`~repro.core.optimizer.Optimizer`'s
``suggest(n)`` / ``observe(trial)``; the online world speaks
:class:`OnlinePolicy`'s ``propose(observation)`` /
``feedback(observation, config, reward)``, defined here with the one
reward rule (:class:`DeltaReward`). The two protocols differ only
in what flows alongside the configuration (an observation vector and a
scale-free reward instead of metrics and cost), so thin adapters make
either side usable from the other:

* :class:`OnlinePolicyOptimizer` wraps an online policy behind the
  offline protocol — sessions, executors, and telemetry then drive RL/GA
  policies exactly like any Bayesian optimizer, and an
  :class:`~repro.online.agent.OnlineTuningAgent` run *is* such a session;
* :class:`OptimizerPolicy` wraps an offline optimizer behind the online
  protocol — the :class:`~repro.online.agent.OnlineTuningAgent` (with its
  guardrail) can then deploy GP-BO or random search as its policy.

Where semantics genuinely differ the adapters stay deliberately simple and
say so: rewards are *relative* delta-performance signals, metrics are
*absolute* — the conversions below preserve ordering, not scale.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from ..core.optimizer import Objective, Optimizer, Trial
from ..space import Configuration, ConfigurationSpace
from ..telemetry.spans import span

__all__ = ["OnlinePolicy", "OnlinePolicyOptimizer", "OptimizerPolicy"]

#: Dimensionality of the default (all-zeros) observation vector, matching
#: :meth:`OnlineTuningAgent._observe`.
_DEFAULT_OBS_DIM = 6


class OnlinePolicy(ABC):
    """A policy that proposes configurations and learns from rewards."""

    @abstractmethod
    def propose(self, observation: np.ndarray) -> Configuration:
        """Next configuration given the current observation vector."""

    @abstractmethod
    def feedback(self, observation: np.ndarray, config: Configuration, reward: float) -> None:
        """Learn from the reward of the configuration just applied.

        Rewards are normalised "higher is better" values.
        """


class DeltaReward:
    """Delta-performance reward (the CDBTune convention).

    Positive when a value beat the recent average (an EMA over the values
    seen so far), negative when it regressed — an informative, scale-free
    signal even when the raw metric drifts with the workload.
    """

    def __init__(self, objective: Objective) -> None:
        self.objective = objective
        self._ema: float | None = None

    def __call__(self, value: float) -> float:
        score = self.objective.score(value)
        if self._ema is None:
            self._ema = score
            return 0.0
        ema = self._ema
        reward = float(np.clip((ema - score) / (abs(ema) + 1e-12), -2.0, 2.0))
        self._ema = 0.9 * ema + 0.1 * score
        return reward


class OnlinePolicyOptimizer(Optimizer):
    """Adapter: an :class:`OnlinePolicy` exposed as an offline optimizer.

    ``suggest`` obtains an observation (from ``observation_fn``; zeros when
    none is given) and asks the policy to propose; ``observe`` converts the
    trial's objective metric into the online reward (:class:`DeltaReward`,
    less any ``reward_penalty`` a guardrail left in the trial's context),
    feeds it back and leaves it in ``trial.context["reward"]``. A failed
    trial feeds a flat ``-2.0``: the policy must learn the region is
    off-limits regardless of the metric scale.

    Semantic caveats (the "thin adapter" contract):

    * policies that alternate incumbent/probe measurements (greedy hill
      climbers) see batch suggestions as consecutive steps — sensible, but
      not identical to their behavior under the online agent;
    * the reward is relative to the run's own history, so warm-starting
      this adapter re-anchors the policy's reward scale.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        policy: OnlinePolicy,
        objectives: Sequence[Objective] | Objective | None = None,
        observation_fn: Callable[[], np.ndarray] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, objectives, seed=seed)
        self.policy = policy
        self._observation_fn = observation_fn or (lambda: np.zeros(_DEFAULT_OBS_DIM))
        self._reward = DeltaReward(self.objective)

    # -- ask ----------------------------------------------------------------
    def _suggest(self) -> tuple[Configuration, np.ndarray]:
        observation = np.asarray(self._observation_fn(), dtype=float)
        with span("policy.propose"):
            return self.policy.propose(observation), observation

    # -- tell ---------------------------------------------------------------
    def _on_observe(self, trial: Trial, observation: np.ndarray | None) -> None:
        if observation is None:  # not proposed here (warm start): no observation came with it
            observation = np.zeros(_DEFAULT_OBS_DIM)
        if trial.ok:
            reward = self._reward(trial.metric(self.objective.name)) - trial.context.get("reward_penalty", 0.0)
        else:
            reward = -2.0
        trial.context["reward"] = reward
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
