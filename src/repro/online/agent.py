"""The online tuning loop: an agent observing and adjusting production.

"Use an 'agent' to continually observe and adjust the system" (deployment
slide). The agent architecture follows slide 78: an **external** side-car
that monitors the target and applies actions through its exposed hooks;
policies are pluggable (RL, GA, bandits — :mod:`repro.online`).

Each step: read the current workload from a trace, let the policy propose a
configuration, run the system, convert the measured metric into a reward,
feed it back, and let the guardrail veto/rollback regressions.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..core import Objective
from ..exceptions import ReproError, SystemCrashError
from ..telemetry.spans import emit_event, span, trial_scope
from ..space import Configuration
from ..sysim.system import SimulatedSystem
from ..workloads import WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - .safety loads the GP; the agent only names the type
    from .safety import Guardrail

__all__ = ["OnlinePolicy", "OnlineTuningAgent", "OnlineStepRecord", "OnlineResult"]


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


@dataclass
class OnlineStepRecord:
    """One step of the online loop."""

    step: int
    workload_name: str
    config: Configuration
    value: float  # raw objective metric
    reward: float
    crashed: bool = False
    rolled_back: bool = False


@dataclass
class OnlineResult:
    """Full trace of an online tuning run."""

    records: list[OnlineStepRecord] = field(default_factory=list)

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
    """Drives an :class:`OnlinePolicy` against a system and workload trace.

    Parameters
    ----------
    system:
        The production system (simulated).
    policy:
        The learning policy.
    objective:
        Metric and direction; rewards are :class:`DeltaReward` over it.
    guardrail:
        Optional safety monitor; on violation the agent rolls back to the
        last safe configuration and penalises the policy.
    observe:
        Maps (workload, last measurement metrics) to the observation vector
        the policy sees. Defaults to observable load features only — the
        agent cannot read the workload's ground truth.
    trace:
        Optional :class:`~repro.telemetry.SessionTrace`; when given, the
        agent records one span per step (outcome, wall-clock, reward) plus
        crash/rollback counters — the online twin of the session telemetry.
    """

    def __init__(
        self,
        system: SimulatedSystem,
        policy: OnlinePolicy,
        objective: Objective,
        guardrail: Guardrail | None = None,
        duration_s: float = 60.0,
        observe=None,
        trace=None,
    ) -> None:
        self.system = system
        self.policy = policy
        self.objective = objective
        self.guardrail = guardrail
        self.duration_s = duration_s
        self._observe = observe if observe is not None else self._default_observation
        self._last_metrics: dict[str, float] = {}
        self._safe_config = system.current_config
        self._reward = DeltaReward(objective)
        self.trace = trace

    @staticmethod
    def _default_observation(workload, last_metrics: dict[str, float]) -> np.ndarray:
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
        from contextlib import nullcontext

        result = OnlineResult()
        # Activate the attached telemetry trace (if any) so policy/system
        # spans and guardrail/crash events land in it, scoped per step.
        activation = self.trace.activated() if self.trace is not None else nullcontext()
        with activation:
            for step in range(len(trace)):
                with trial_scope() as ref:
                    if ref is not None:
                        ref.trial_id = step  # online steps have stable ids up front
                    workload = trace.at(step)
                    obs = self._observe(workload, self._last_metrics)
                    step_started = time.perf_counter()
                    with span("policy.propose"):
                        config = self.policy.propose(obs)
                    propose_s = time.perf_counter() - step_started
                    crashed = rolled_back = False
                    try:
                        with span("system.run", workload=workload.name):
                            measurement = self.system.run(workload, duration_s=self.duration_s, config=config)
                        value = measurement.metric(self.objective.name)
                        self._last_metrics = measurement.metrics()
                    except SystemCrashError as exc:
                        crashed = True
                        emit_event(
                            "agent.crash", severity="error", message=str(exc),
                            step=step, workload=workload.name,
                        )
                        # Production pain: a crash step delivers the worst value seen.
                        prior = [r.value for r in result.records if not r.crashed]
                        value = (
                            max(prior) if self.objective.minimize else min(prior)
                        ) if prior else (1e6 if self.objective.minimize else 0.0)
                        self.system.apply(self._safe_config)
                    # A crash gets a flat, strongly negative reward: the policy must
                    # learn the region is off-limits regardless of the metric scale.
                    reward = -2.0 if crashed else self._reward(value)
                    if self.guardrail is not None and not crashed:
                        verdict = self.guardrail.check(self.objective.score(value))
                        if verdict.violated:
                            self.system.apply(self._safe_config)
                            rolled_back = True
                            reward -= verdict.penalty
                            emit_event(
                                "agent.rollback", severity="warning",
                                message="guardrail violation: reverted to last safe configuration",
                                step=step, workload=workload.name, value=float(value),
                            )
                        elif verdict.is_safe_point:
                            self._safe_config = config
                    self.policy.feedback(obs, config, reward)
                    self._record_span(step, workload.name, value, reward, propose_s, step_started, crashed, rolled_back)
                    result.records.append(
                        OnlineStepRecord(step, workload.name, config, float(value), float(reward), crashed, rolled_back)
                    )
        if self.trace is not None:
            self.trace.metrics.set_gauge("steps.total", float(len(result.records)))
        return result

    def _record_span(
        self,
        step: int,
        workload_name: str,
        value: float,
        reward: float,
        propose_s: float,
        step_started: float,
        crashed: bool,
        rolled_back: bool,
    ) -> None:
        """Record one online step into the telemetry trace, if attached."""
        if self.trace is None:
            return
        step_s = time.perf_counter() - step_started
        self.trace.record_trial(
            step,
            step_s,
            {
                "outcome": "crash" if crashed else ("rollback" if rolled_back else "success"),
                "trial_status": "failed" if crashed else "succeeded",
                "retries": 0,
                "cost": self.duration_s,
                "suggest_latency_s": propose_s,
                "evaluate_s": step_s - propose_s,
                "queue_s": 0.0,
                "workload": workload_name,
                "value": float(value),
                "reward": float(reward),
            },
            status="error" if crashed else "ok",
        )
        metrics = self.trace.metrics
        metrics.inc("steps.total")
        if crashed:
            metrics.inc("steps.crashes")
        if rolled_back:
            metrics.inc("steps.rollbacks")
        metrics.observe("step.seconds", step_s)
        metrics.observe("propose.seconds", propose_s)
