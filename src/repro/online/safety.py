"""Safety for online tuning: guardrails and safe exploration (slide 84).

* :class:`Guardrail` — a runtime monitor: if recent performance regresses
  past a tolerance against a trailing baseline, flag a violation so the
  agent rolls back (the "avoid performance regression" pattern shared by
  OnlineTune, LOCAT, and OPPerTune).
* :class:`SafeBayesianOptimizer` — GP-based safe exploration: only propose
  candidates whose *pessimistic* predicted score stays within a tolerance
  of the best known configuration, and search a trust region around it
  ("iteratively optimizes subspaces around the best-known configuration,
  assessing safety via lower-bound estimates").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import OptimizerError
from ..optimizers.acquisition import trust_region
from ..optimizers.bo import BayesianOptimizer
from ..telemetry.spans import current_op, emit_event
from ..space import Configuration

__all__ = ["Guardrail", "GuardrailVerdict", "SafeBayesianOptimizer"]


@dataclass
class GuardrailVerdict:
    """Outcome of one guardrail check."""

    violated: bool
    is_safe_point: bool  # comfortably within budget: safe to adopt
    penalty: float = 0.0


class Guardrail:
    """Trailing-baseline regression monitor.

    Parameters
    ----------
    tolerance:
        Allowed relative regression vs the baseline score (canonical
        minimize scores; 0.2 = 20 % worse allowed).
    window:
        Trailing window for the baseline estimate (median of recent scores).
    grace:
        Steps before the guardrail activates (needs a baseline first).
    penalty:
        Reward penalty handed to the policy on violation.
    """

    def __init__(self, tolerance: float = 0.2, window: int = 20, grace: int = 5, penalty: float = 0.5) -> None:
        if tolerance < 0:
            raise OptimizerError(f"tolerance must be >= 0, got {tolerance}")
        if window < 2 or grace < 1:
            raise OptimizerError("window must be >= 2 and grace >= 1")
        self.tolerance = float(tolerance)
        self.window = int(window)
        self.grace = int(grace)
        self.penalty = float(penalty)
        self._scores: list[float] = []
        self.violations = 0

    def check(self, score: float) -> GuardrailVerdict:
        """Record a canonical (minimize) score and judge it."""
        history = self._scores[-self.window:]
        self._scores.append(float(score))
        if len(history) < self.grace:
            return GuardrailVerdict(violated=False, is_safe_point=False)
        baseline = float(np.median(history))
        band = abs(baseline) * self.tolerance
        if score > baseline + band:
            self.violations += 1
            emit_event(
                "guardrail.violation", severity="warning",
                message=f"score {score:.6g} exceeded baseline {baseline:.6g} by > {self.tolerance:.0%}",
                score=float(score), baseline=baseline, tolerance=self.tolerance,
            )
            return GuardrailVerdict(violated=True, is_safe_point=False, penalty=self.penalty)
        return GuardrailVerdict(violated=False, is_safe_point=score <= baseline)


class SafeBayesianOptimizer(BayesianOptimizer):
    """BO that refuses to propose predicted-unsafe configurations.

    A candidate is safe when its pessimistic bound ``μ + κσ`` (minimize
    scores) does not exceed ``(1 + tolerance) ×`` the incumbent's score.
    Candidates come from a trust region around the incumbent, so the safe
    set grows outward as confidence accumulates. Exploration is slower than
    vanilla BO — that is the measured trade-off of E17.
    """

    def __init__(
        self,
        *args,
        safety_tolerance: float = 0.25,
        kappa: float = 1.5,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if safety_tolerance < 0:
            raise OptimizerError(f"safety_tolerance must be >= 0, got {safety_tolerance}")
        if kappa < 0:
            raise OptimizerError(f"kappa must be >= 0, got {kappa}")
        self.safety_tolerance = float(safety_tolerance)
        self.kappa = float(kappa)

    def _before_model(self) -> Configuration | None:
        n_done = len(self.history.completed())
        if n_done < self.n_init:
            # Even the initial design stays near the running default: start
            # from the space default and expand cautiously.
            base = self.space.default_configuration()
            return self.space.neighbor(base, self.rng, scale=0.05) if n_done else base
        return None

    def _candidates(self) -> list[Configuration]:
        return trust_region(self.space, self.rng, self.history.best().config, self.n_candidates)

    def _pick(self, cands: list[Configuration]) -> Configuration:
        X = self.encoder.encode_many(cands)
        mean, std = self.model.predict(X, return_std=True)
        best_score = float(self.history.scores().min())
        limit = best_score + abs(best_score) * self.safety_tolerance
        safe = (mean + self.kappa * std) <= limit
        op = current_op()  # the loop's acquisition.optimize span, when traced
        if op is not None:
            op.set(n_safe=int(safe.sum()))
        if not safe.any():
            # Nothing provably safe: stay on the incumbent.
            return self.history.best().config
        scores = self.acquisition(mean, std, best_score)
        return cands[int(np.argmax(np.where(safe, scores, -np.inf)))]
