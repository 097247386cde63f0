"""Constrained Bayesian optimization — the SCBO idea (slide 60).

"SCBO: Eriksson & Poloczek (2021), Scalable constrained Bayesian
optimization — supports black-box constraints!"

The target returns, besides the objective, one or more *constraint
metrics* whose feasible region is ``value <= 0`` (canonical form). Each
constraint gets its own GP; candidates are scored by

    EI(x) × Π_i P(c_i(x) <= 0)

— expected improvement weighted by the probability of feasibility (the
classical Gardner/Gelbart formulation SCBO builds on). Crashes count as
maximally infeasible observations, so even "the system refuses to start"
black-box constraints are learnable.
"""

from __future__ import annotations

import numpy as np

from ..core import Objective, Trial
from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace
from .acquisition import _norm_cdf
from .bo import BayesianOptimizer
from .gp import GaussianProcessRegressor, default_kernel

__all__ = ["ConstrainedBayesianOptimizer"]

#: Constraint value recorded for crashed trials and missing metrics (strongly infeasible).
CRASH_CONSTRAINT_VALUE = 1.0
#: An acquisition × feasibility score at or below this is no information: chase feasibility alone.
FEASIBILITY_FLOOR = 1e-6


class ConstrainedBayesianOptimizer(BayesianOptimizer):
    """BO whose EI is weighted by the modelled probability of feasibility.

    Each constraint has its own GP, fitted on the objective model's rows and
    on BO's hyperparameter cadence; BO's local candidates perturb the best
    feasible trial.

    Parameters
    ----------
    constraint_metrics:
        Names of metrics the evaluator reports; feasible iff <= 0. E.g.
        report ``{"latency": ..., "mem_overrun_mb": used - budget}``.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        constraint_metrics: list[str],
        n_init: int = 8,
        n_candidates: int = 512,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        if not constraint_metrics:
            raise OptimizerError("need at least one constraint metric")
        super().__init__(space, n_init=n_init, n_candidates=n_candidates, objectives=objectives, seed=seed)
        self.constraint_metrics = list(constraint_metrics)
        self.constraint_models = {
            name: GaussianProcessRegressor(kernel=default_kernel(self.encoder.n_features), seed=seed)
            for name in self.constraint_metrics
        }

    # -- data -----------------------------------------------------------------
    def feasible_trials(self) -> list[Trial]:
        """Completed trials satisfying every observed constraint."""
        out = []
        for t in self.history.completed():
            values = [t.metrics.get(c) for c in self.constraint_metrics]
            if all(v is not None and v <= 0 for v in values):
                out.append(t)
        return out

    def _constraint_value(self, trial: Trial, name: str) -> float:
        if trial.ok and name in trial.metrics:
            return trial.metrics[name]
        return CRASH_CONSTRAINT_VALUE

    def _fit(self) -> bool:
        super()._fit()
        if not self._lies:  # a constant-liar refit brings no constraint data
            trials, X, _ = self._training_set()
            for name, model in self.constraint_models.items():
                model.optimize_hypers = self.model.optimize_hypers
                model.fit(X, np.array([self._constraint_value(t, name) for t in trials]))
        return True

    # -- suggest --------------------------------------------------------------
    def _incumbent(self) -> Configuration:
        # As SCBO centres its trust region: BO's local candidates circle the best feasible point.
        return self.best_feasible_trial().config if self.feasible_trials() else super()._incumbent()

    def _scores(self, cands: list[Configuration]) -> np.ndarray:
        X = self._features(cands)
        weight = np.ones(len(cands))
        for model in self.constraint_models.values():
            c_mean, c_std = model.predict(X, return_std=True)
            weight *= _norm_cdf(-c_mean / np.maximum(c_std, 1e-12))
        feasible = self.feasible_trials()
        if not feasible:  # no feasible point yet: chase feasibility alone
            return weight
        mean, std = self.model.predict(X, return_std=True)
        best = min(self.objective.score(t.metric(self.objective.name)) for t in feasible)
        scores = self.acquisition(mean, std, best) * weight
        # Nothing both promising and plausibly feasible: chase the most
        # plausibly feasible point instead of a confident violation.
        return weight if scores.max() <= FEASIBILITY_FLOOR else scores

    def best_feasible_trial(self) -> Trial:
        """Best trial among those satisfying every constraint."""
        feasible = self.feasible_trials()
        if not feasible:
            raise OptimizerError("no feasible trial observed yet")
        obj = self.objective
        return min(feasible, key=lambda t: obj.score(t.metric(obj.name)))
