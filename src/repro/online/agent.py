"""The online tuning loop: an agent observing and adjusting production.

"Use an 'agent' to continually observe and adjust the system" (deployment
slide). The agent architecture follows slide 78: an **external** side-car
that monitors the target and applies actions through its exposed hooks;
policies are pluggable (RL, GA, bandits — :mod:`repro.online`).

An online run is a :class:`~repro.core.session.TuningSession`: each step is
one trial. The suggest reads the current workload from a trace and lets the
policy propose a configuration; the evaluation runs the system and lets the
guardrail veto/rollback regressions; the observe converts the measured
metric into a reward and feeds it back
(:class:`~repro.online.adapters.OnlinePolicyOptimizer`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core import Objective
from ..core.evaluation import EvaluationResult
from ..core.optimizer import History
from ..core.session import TuningSession
from ..exceptions import ReproError, SystemCrashError
from ..space import Configuration
from ..sysim.system import SimulatedSystem
from ..telemetry.callback import TelemetryCallback
from ..telemetry.spans import emit_event, span
from ..workloads import WorkloadTrace
from .adapters import OnlinePolicy, OnlinePolicyOptimizer

if TYPE_CHECKING:  # pragma: no cover - .safety loads the GP; the agent only names the type
    from .safety import Guardrail

__all__ = ["OnlinePolicy", "OnlineTuningAgent", "OnlineStepRecord", "OnlineResult"]


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
    """Full trace of an online tuning run: a view over the session's history."""

    def __init__(self, history: History, trace: WorkloadTrace) -> None:
        self.history = history
        self._trace = trace

    @property
    def records(self) -> list[OnlineStepRecord]:
        """One record per step (step = trial id)."""
        objective = self.history.primary
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
                    trial.context["reward"],
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
    """Drives an :class:`OnlinePolicy` against a system and workload trace.

    Parameters
    ----------
    system:
        The production system (simulated).
    policy:
        The learning policy.
    objective:
        Metric and direction; rewards are
        :class:`~repro.online.adapters.DeltaReward` over it.
    guardrail:
        Optional safety monitor; on violation the agent rolls back to the
        last safe configuration and penalises the policy.
    trace:
        Optional :class:`~repro.telemetry.SessionTrace`; when given, a
        :class:`~repro.telemetry.TelemetryCallback` records the run into it
        exactly as it records any session — one ``session.trial`` root per
        step, carrying the step's workload, value and reward.
    """

    def __init__(
        self,
        system: SimulatedSystem,
        policy: OnlinePolicy,
        objective: Objective,
        guardrail: Guardrail | None = None,
        duration_s: float = 60.0,
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
        optimizer = OnlinePolicyOptimizer(
            self.system.space,
            self.policy,
            self.objective,
            observation_fn=lambda: self._observe(trace.at(len(optimizer.history)), self._last_metrics),
        )

        def evaluate(config: Configuration) -> EvaluationResult:
            step = len(optimizer.history)
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
            if self.guardrail is not None:
                verdict = self.guardrail.check(self.objective.score(value))
                if verdict.violated:
                    self.system.apply(self._safe_config)
                    metadata.update(rolled_back=True, outcome="rollback", reward_penalty=verdict.penalty)
                    emit_event(
                        "agent.rollback", severity="warning",
                        message="guardrail violation: reverted to last safe configuration",
                        step=step, workload=workload.name, value=float(value),
                    )
                elif verdict.is_safe_point:
                    self._safe_config = config
            return EvaluationResult({self.objective.name: value}, cost=self.duration_s, metadata=metadata)

        callbacks = [TelemetryCallback(trace=self.trace)] if self.trace is not None else []
        TuningSession(optimizer, evaluate, max_trials=len(trace), callbacks=callbacks).run()
        return OnlineResult(optimizer.history, trace)
