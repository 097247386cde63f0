"""Multi-fidelity optimization: mix cheap and expensive measurements.

Slide 65: "Combine expensive more accurate measurements and cheaper less
accurate ones — use cost-adjusted utility functions, e.g. cost-adjusted
Expected Improvement." Slide 66 adds the systems caveat: knowledge from
TPC-H SF1 is only partially transferable to SF100 (knob sensitivities
change), so the fidelity dimension must be *modelled*, not just scaled.

Two tools:

* :class:`MultiFidelityBO` — BO whose model rows carry the index of their
  fidelity level, read by a coregionalised kernel that learns how well each
  level correlates with the target; each suggestion picks the (config,
  level) pair maximising correlation-weighted EI per unit cost, with a
  guaranteed share of trials at full fidelity.
* :class:`HyperbandOptimizer` — rung-based elimination (successive halving,
  also the idea behind TUNA's budget allocation) across Hyperband's
  brackets, ask/tell: each suggestion carries its rung's budget as its
  fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from ..core import Objective, Optimizer, Trial, TrialStatus
from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace
from .bo import BayesianOptimizer

__all__ = ["FidelityLevel", "MultiFidelityBO", "HyperbandOptimizer"]


@dataclass(frozen=True)
class FidelityLevel:
    """One rung of the fidelity ladder.

    ``value`` is the lever (e.g. TPC-H scale factor or benchmark minutes);
    ``cost`` its relative evaluation cost. The highest ``value`` is the
    target fidelity the final recommendation must hold at.
    """

    value: float
    cost: float

    def __post_init__(self) -> None:
        if self.cost <= 0:
            raise OptimizerError(f"fidelity cost must be positive, got {self.cost}")


class MultiFidelityBO(BayesianOptimizer):
    """BO with the fidelity level as a coregionalised column.

    Observations carry their fidelity (``observe(..., fidelity=...)``), a
    value on the ladder or ``None`` for the target. A level's score is EI at
    (x, level) against the target-level incumbent, times the kernel's learned
    correlation between that level and the target, divided by the level's
    cost; every ``full_every``-th suggestion is at the target level so the
    incumbent is always backed by a real high-fidelity measurement, and the
    initial design runs at the cheapest. Each suggestion's level is its
    memo, which :meth:`suggested_fidelity` reports.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        fidelities: Sequence[FidelityLevel],
        n_init: int = 6,
        n_candidates: int = 384,
        full_every: int = 4,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        ladder = sorted(fidelities, key=lambda f: f.value)
        if len({f.value for f in ladder}) < max(2, len(ladder)):
            raise OptimizerError("need at least two fidelity levels, of distinct values")
        super().__init__(space, n_init=n_init, n_candidates=n_candidates, objectives=objectives, seed=seed)
        self.fidelities = ladder
        self._level = {f.value: i for i, f in enumerate(ladder)}
        self.full_every = max(1, int(full_every))
        self._use_column(len(self.fidelities))
        self._n_suggested = 0

    def _ingest(self, config: Configuration, metrics: dict[str, float], cost: float, status: TrialStatus,
                fidelity: float | None, context: Mapping[str, Any] | None, suggestion: int | None) -> Trial:
        if fidelity is not None and fidelity not in self._level:
            raise OptimizerError(f"fidelity {fidelity!r} is not on the ladder {sorted(self._level)}")
        return super()._ingest(config, metrics, cost, status, fidelity, context, suggestion)

    def suggested_fidelity(self, number: int) -> float | None:
        _, level = self.untold(number)
        return None if level is None else self.fidelities[level].value

    def _before_model(self) -> tuple[Configuration, int] | None:
        self._n_suggested += 1
        config = super()._before_model()
        return None if config is None else (config, 0)

    def _trial_column(self, trials: list[Trial]) -> np.ndarray:
        top = len(self.fidelities) - 1
        return np.array([top if t.fidelity is None else self._level[t.fidelity] for t in trials])

    def _candidate_column(self, cands: list[Configuration]) -> np.ndarray:
        return np.full(len(cands), len(self.fidelities) - 1)

    def _lie_column(self, lies: list[tuple[Configuration, int | None]]) -> np.ndarray:  # each pick's level
        return np.array([len(self.fidelities) - 1 if level is None else level for _, level in lies])

    def _pick(self, cands: list[Configuration]) -> tuple[Configuration, int]:
        top = len(self.fidelities) - 1
        scores, at_top = self.history.scores(), self._trial_column(self.history.completed()) == top
        best = float(scores[at_top].min() if at_top.any() else scores.min())
        B = self.model.kernel.k1.task_covariance()
        X = self.encoder.encode_many(cands)
        utility = np.full((top + 1, len(cands)), -np.inf)
        for level in [top] if self._n_suggested % self.full_every == 0 else range(top + 1):
            mean, std = self.model.predict(np.column_stack([X, np.full(len(X), level)]), return_std=True)
            correlation = B[level, top] / math.sqrt(B[level, level] * B[top, top])
            utility[level] = self.acquisition(mean, std, best) * correlation / self.fidelities[level].cost
        level, i = np.unravel_index(np.argmax(utility), utility.shape)
        return cands[i], int(level)

    def _digest_state(self) -> dict[str, object]:
        return {**super()._digest_state(), "n_suggested": self._n_suggested}


#: Hyperband's halving rate: each rung keeps the best third at three times the budget (Li et al.).
ETA = 3


class _Bracket:
    """One successive-halving run and where its current rung stands."""

    def __init__(self, budgets: list[float], queue: list[Configuration]) -> None:
        self.budgets = budgets
        self.queue = queue  # to suggest at the current rung
        self.rung = 0
        self.results: list[tuple[float, Configuration]] = []  # (score, config) told at the current rung


class HyperbandOptimizer(Optimizer):
    """Hyperband (Li et al. 2018) as an ask/tell optimizer.

    Bracket ``s`` is one successive-halving run: ``n_s`` random
    configurations at budget ``max_budget / ETA**s``; once a rung is told,
    its best ``1/ETA`` are suggested again at ``ETA`` times the budget, up to
    ``max_budget``. Brackets cycle from ``s_max`` down to plain random search
    at full budget (``s = 0``); while every open bracket waits on trials, the
    next one opens. A suggestion's memo is its rung's budget and bracket: the
    budget is its :meth:`suggested_fidelity`, and its tell joins that rung
    (ranked last if it failed or ran at another budget); a trial it did not
    suggest (foreign, or re-observed on resume) joins no rung. The incumbent
    is the best trial at ``max_budget``.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
        max_budget: float = 27.0,
        min_budget: float = 1.0,
    ) -> None:
        super().__init__(space, objectives, seed)
        if not 0 < min_budget < max_budget:
            raise OptimizerError(f"need 0 < min_budget < max_budget, got {min_budget} and {max_budget}")
        self.max_budget = float(max_budget)
        self.s_max = int(math.floor(math.log(max_budget / min_budget, ETA) + 1e-9))
        self._brackets: list[_Bracket] = []
        self._n_opened = 0

    def _open_bracket(self) -> _Bracket:
        s = self.s_max - self._n_opened % (self.s_max + 1)
        self._n_opened += 1
        n = int(math.ceil((self.s_max + 1) / (s + 1) * ETA**s))
        budgets = [self.max_budget / ETA ** (s - i) for i in range(s + 1)]
        bracket = _Bracket(budgets, list(self.space.sample_many(n, self.rng)))
        self._brackets.append(bracket)
        return bracket

    def _suggest(self) -> tuple[Configuration, tuple[float, _Bracket]]:
        for bracket in list(self._brackets):  # a rung whose last untold suggestions were forgotten
            self._advance(bracket)
        bracket = next((b for b in self._brackets if b.queue), None) or self._open_bracket()
        return bracket.queue.pop(0), (bracket.budgets[bracket.rung], bracket)

    def suggested_fidelity(self, number: int) -> float | None:
        _, memo = self.untold(number)
        return None if memo is None else memo[0]

    def _on_observe(self, trial: Trial, memo: tuple[float, _Bracket] | None) -> None:
        if memo is None:
            return
        budget, bracket = memo
        ranked = trial.ok and trial.fidelity == budget  # a failure ranks last, whatever its imputation
        score = self.objective.score(trial.metrics[self.objective.name]) if ranked else math.inf
        bracket.results.append((score, trial.config))
        self._advance(bracket)

    def _advance(self, bracket: _Bracket) -> None:
        """Close a rung with nothing left to suggest or tell: promote its best third, or end the bracket."""
        if bracket.queue or any(memo[1] is bracket for _, memo in self._untold.values()):
            return
        if bracket.rung + 1 == len(bracket.budgets):
            self._brackets.remove(bracket)
            return
        ranked = sorted(bracket.results, key=lambda result: result[0])  # stable: ties keep tell order
        bracket.queue = [config for _, config in ranked[: max(1, len(ranked) // ETA)]]
        bracket.results = []
        bracket.rung += 1

    def _digest_state(self) -> dict[str, object]:
        """Per open bracket: its size, its rung's budget, the suggestions it
        has queued and untold, and its rung's results as ranked — so a tell
        that joins the wrong rung diverges at its own record."""
        return {"brackets": [
            {
                "s": len(bracket.budgets) - 1,
                "budget": bracket.budgets[bracket.rung],
                "queued": len(bracket.queue),
                "untold": sum(memo[1] is bracket for _, memo in self._untold.values()),
                "ranked": [
                    [round(score, 12), config.as_dict()]
                    for score, config in sorted(bracket.results, key=lambda result: result[0])
                ],
            }
            for bracket in self._brackets
        ]}
