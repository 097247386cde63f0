"""Tuning outcome summary returned by sessions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..space import Configuration
from .optimizer import History, Objective, best_at_top_fidelity

__all__ = ["TuningResult"]


@dataclass
class TuningResult:
    """What a tuning run produced: the incumbent and the full history."""

    best_config: Configuration
    best_value: float
    objective: Objective
    history: History
    n_trials: int
    total_cost: float

    @classmethod
    def from_history(cls, history: History) -> "TuningResult":
        """The result of whatever ``history`` holds so far (valid mid-run):
        its best trial at the top fidelity run (:func:`~.optimizer.best_at_top_fidelity`)."""
        obj = history.primary
        # If every trial failed, rank their imputed values so callers still
        # get a full report of the (disastrous) run.
        ranked = history.completed() or [t for t in history if obj.name in t.metrics]
        best = best_at_top_fidelity(ranked, lambda t: obj.score(t.metric(obj.name)))
        return cls(
            best_config=best.config,
            best_value=best.metric(obj.name),
            objective=obj,
            history=history,
            n_trials=len(history),
            total_cost=history.total_cost(),
        )

    def incumbent_curve(self) -> np.ndarray:
        """Best-so-far objective value after each trial."""
        return self.history.incumbent_curve(self.objective)

    def trials_to_reach(self, target: float) -> int | None:
        """Trials needed before the incumbent is at least as good as ``target``.

        Returns None when the target was never reached — the standard
        "evaluations to quality" sample-efficiency metric.
        """
        curve = self.incumbent_curve()
        scores = np.array([self.objective.score(v) if np.isfinite(v) else np.inf for v in curve])
        hits = np.nonzero(scores <= self.objective.score(target))[0]
        return int(hits[0]) + 1 if len(hits) else None

    def cost_to_reach(self, target: float) -> float | None:
        """Cumulative trial cost spent before reaching ``target``."""
        curve = self.incumbent_curve()
        costs = np.cumsum([t.cost for t in self.history])
        scores = np.array([self.objective.score(v) if np.isfinite(v) else np.inf for v in curve])
        hits = np.nonzero(scores <= self.objective.score(target))[0]
        return float(costs[hits[0]]) if len(hits) else None

    def summary(self) -> str:
        goal = "min" if self.objective.minimize else "max"
        return (
            f"TuningResult({goal} {self.objective.name}: best={self.best_value:.4g} "
            f"after {self.n_trials} trials, cost={self.total_cost:.4g})"
        )
