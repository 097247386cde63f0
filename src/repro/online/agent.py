"""The online tuning loop: an agent observing and adjusting production.

"Use an 'agent' to continually observe and adjust the system" (deployment
slide). The agent architecture follows slide 78: an **external** side-car
that monitors the target and applies actions through its exposed hooks;
techniques are pluggable (RL, GA, bandits, contextual BO — :mod:`repro.online`).

An online run is a :class:`~repro.core.session.TuningSession` over the
technique itself, an :class:`~repro.core.optimizer.Optimizer`: each step is
one trial. The technique reads the live observation from its
``observation_fn`` (the agent sets its own) when it suggests; the evaluation
runs the system, lets the guardrail veto/rollback regressions and reports
the step's :data:`REWARD` metric beside the raw one; the technique learns
from whichever metric its objective names.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..benchmarking.measurement import REFERENCE_S
from ..core import Objective
from ..core.evaluation import EvaluationResult
from ..core.optimizer import History, Optimizer, Trial
from ..core.session import TuningSession
from ..exceptions import ReproError, SystemCrashError
from ..space import Configuration, ConfigurationSpace
from ..sysim.system import SimulatedSystem
from ..telemetry.callback import TelemetryCallback
from ..telemetry.spans import emit_event, span
from ..workloads import WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - .safety loads the GP; the agent only names the type
    from .safety import Guardrail

__all__ = ["REWARD", "OnlinePolicy", "OnlineTuningAgent", "OnlineStepRecord", "OnlineResult", "StaticConfigPolicy"]

#: The step metric every online technique learns from by default: the
#: agent's :class:`DeltaReward`, less any guardrail penalty.
REWARD = Objective("reward", minimize=False)
#: The reward of a crashed step: the region is off-limits whatever the metric's scale.
CRASH_REWARD = -2.0
#: Width of the observation :meth:`OnlineTuningAgent._observe` builds.
OBSERVATION_DIM = 6


def no_observation() -> np.ndarray:
    """The observation of a technique driven outside an agent: zeros."""
    return np.zeros(OBSERVATION_DIM)


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


class OnlinePolicy(Optimizer):
    """Base of the RL, bandit, greedy and proactive techniques: an optimizer
    that proposes from the live observation and learns from each step's reward.

    :meth:`propose` returns the configuration and its memo (the state that
    proposed it); :meth:`feedback` gets that memo back with the step's
    :data:`REWARD` metric, or :data:`CRASH_REWARD` when the step crashed. A
    foreign trial (warm start, a tell after a restart) has no memo and
    teaches nothing.
    """

    #: The live observation; an agent sets its own.
    observation_fn = staticmethod(no_observation)

    def __init__(self, space: ConfigurationSpace, seed: int | None = None) -> None:
        super().__init__(space, REWARD, seed=seed)

    def _suggest(self) -> tuple[Configuration, Any]:
        observation = np.asarray(self.observation_fn(), dtype=float)
        with span("policy.propose"):
            return self.propose(observation)

    def _on_observe(self, trial: Trial, memo: Any) -> None:
        if memo is not None:
            self.feedback(trial, memo, trial.metric(self.objective.name) if trial.ok else CRASH_REWARD)

    @abstractmethod
    def propose(self, observation: np.ndarray) -> tuple[Configuration, Any]:
        """The next configuration given the observation vector, with its memo."""

    @abstractmethod
    def feedback(self, trial: Trial, memo: Any, reward: float) -> None:
        """Learn from the reward (higher is better) of the proposal ``memo`` made."""


class StaticConfigPolicy(Optimizer):
    """Baseline: always apply one fixed configuration (offline-tuned or default)."""

    def __init__(self, config: Configuration) -> None:
        super().__init__(config.space, REWARD)
        self.config = config

    def _suggest(self) -> Configuration:
        return self.config


@dataclass(frozen=True)
class OnlineStepRecord:
    """One step of the online loop."""

    step: int
    workload_name: str
    config: Configuration
    value: float  # raw objective metric
    reward: float
    crashed: bool = False
    rolled_back: bool = False


class OnlineResult:
    """Full trace of an online tuning run: a view over the session's history.

    ``objective`` names the raw metric each step's ``value`` is read from.
    """

    def __init__(self, history: History, trace: WorkloadTrace, objective: Objective) -> None:
        self.history = history
        self._trace = trace
        self.objective = objective

    @property
    def records(self) -> list[OnlineStepRecord]:
        """One record per step (step = trial id)."""
        objective = self.objective
        records: list[OnlineStepRecord] = []
        worst: float | None = None
        for trial in self.history:
            if trial.ok:
                value = trial.metric(objective.name)
                if worst is None or objective.score(value) > objective.score(worst):
                    worst = value
            else:
                # Production pain: a crash step delivers the worst value seen.
                value = worst if worst is not None else (1e6 if objective.minimize else 0.0)
            records.append(
                OnlineStepRecord(
                    trial.trial_id,
                    self._trace.at(trial.trial_id).name,
                    trial.config,
                    value,
                    trial.metric(REWARD.name) if trial.ok else CRASH_REWARD,
                    crashed=not trial.ok,
                    rolled_back=trial.context.get("rolled_back", False),
                )
            )
        return records

    def values(self) -> np.ndarray:
        return np.array([r.value for r in self.records])

    def regression_steps(self, baseline_values: np.ndarray, tolerance: float = 0.1, minimize: bool = True) -> int:
        """How many steps performed worse than baseline by > tolerance.

        The guardrail quality metric of slide 84.
        """
        values = self.values()
        if len(baseline_values) != len(values):
            raise ReproError("baseline series length mismatch")
        if minimize:
            return int(np.sum(values > baseline_values * (1.0 + tolerance)))
        return int(np.sum(values < baseline_values * (1.0 - tolerance)))


class OnlineTuningAgent:
    """Drives an online technique against a system and workload trace.

    Parameters
    ----------
    system:
        The production system (simulated).
    policy:
        The technique: any fresh :class:`~repro.core.optimizer.Optimizer`
        over the system's knobs. Each step reports the raw ``objective``
        metric and :data:`REWARD`; the technique learns from the one its own
        objective names. One that reads ``observation_fn`` sees the
        workload's load features.
    objective:
        Metric and direction; rewards are :class:`DeltaReward` over it.
    guardrail:
        Optional safety monitor; on violation the agent rolls back to the
        last safe configuration and docks the step's reward.
    trace:
        Optional :class:`~repro.telemetry.SessionTrace`; when given, a
        :class:`~repro.telemetry.TelemetryCallback` records the run into it
        exactly as it records any session — one ``session.trial`` root per
        step, carrying the step's workload, value and reward.
    """

    def __init__(
        self,
        system: SimulatedSystem,
        policy: Optimizer,
        objective: Objective,
        guardrail: Guardrail | None = None,
        duration_s: float = REFERENCE_S,
        trace=None,
    ) -> None:
        self.system = system
        self.policy = policy
        self.objective = objective
        self.guardrail = guardrail
        self.duration_s = duration_s
        self._last_metrics: dict[str, float] = {}
        self._safe_config = system.current_config
        self.trace = trace

    @staticmethod
    def _observe(workload, last_metrics: dict[str, float]) -> np.ndarray:
        """What the policy sees: observable load features only — the agent
        cannot read the workload's ground truth."""
        return np.array(
            [
                np.log10(workload.concurrency + 1.0) / 3.0,
                workload.read_fraction,
                workload.scan_fraction,
                last_metrics.get("cpu_util", 0.0),
                last_metrics.get("mem_util", 0.0),
                last_metrics.get("io_util", 0.0),
            ]
        )

    def run(self, trace: WorkloadTrace) -> OnlineResult:
        policy = self.policy
        if len(policy.history):
            raise ReproError("an online run drives a fresh technique: its trials are the run's steps")
        policy.observation_fn = lambda: self._observe(trace.at(len(policy.history)), self._last_metrics)
        delta_reward = DeltaReward(self.objective)

        def evaluate(config: Configuration) -> EvaluationResult:
            step = len(policy.history)
            workload = trace.at(step)
            try:
                with span("system.run", workload=workload.name):
                    measurement = self.system.run(workload, duration_s=self.duration_s, config=config)
            except SystemCrashError as exc:
                emit_event(
                    "agent.crash", severity="error", message=str(exc),
                    step=step, workload=workload.name,
                )
                self.system.apply(self._safe_config)
                raise
            value = measurement.metric(self.objective.name)
            self._last_metrics = measurement.metrics()
            metadata = {"workload": workload.name, "value": float(value)}
            penalty = 0.0
            if self.guardrail is not None:
                verdict = self.guardrail.check(self.objective.score(value))
                if verdict.violated:
                    self.system.apply(self._safe_config)
                    metadata.update(rolled_back=True, outcome="rollback")
                    penalty = verdict.penalty
                    emit_event(
                        "agent.rollback", severity="warning",
                        message="guardrail violation: reverted to last safe configuration",
                        step=step, workload=workload.name, value=float(value),
                    )
                elif verdict.is_safe_point:
                    self._safe_config = config
            metrics = {self.objective.name: value, REWARD.name: delta_reward(value) - penalty}
            return EvaluationResult(metrics, cost=self.duration_s, metadata=metadata)

        callbacks = [TelemetryCallback(trace=self.trace)] if self.trace is not None else []
        TuningSession(policy, evaluate, max_trials=len(trace), callbacks=callbacks).run()
        return OnlineResult(policy.history, trace, self.objective)
