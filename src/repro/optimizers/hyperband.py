"""Hyperband: principled successive halving across exploration brackets.

Extends :func:`~repro.optimizers.multifidelity.successive_halving` (the
engine the tutorial's multi-fidelity and TUNA discussions rely on) with
Li et al.'s bracket schedule: several halving runs trading off "many
configs at tiny budgets" against "few configs at full budget", so no
single aggressiveness setting has to be guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace
from .multifidelity import HalvingRecord, successive_halving

__all__ = ["HyperbandResult", "hyperband"]

#: Smallest budget a bracket starts from, and the halving rate between rungs (Li et al.).
MIN_BUDGET = 1.0
ETA = 3.0


@dataclass
class HyperbandResult:
    """Winner plus the full per-bracket trace."""

    best_config: Configuration
    best_score: float
    brackets: list[list[HalvingRecord]]
    total_cost: float


def hyperband(
    space: ConfigurationSpace,
    evaluate: Callable[[Configuration, float], float],
    max_budget: float,
    rng: np.random.Generator | None = None,
    minimize: bool = True,
) -> HyperbandResult:
    """Run Hyperband over random configurations from ``space``.

    ``evaluate(config, budget)`` returns a score at the given budget;
    budgets range geometrically (factor :data:`ETA`) from :data:`MIN_BUDGET`
    to ``max_budget``.
    Evaluation cost is accounted as the budget spent.
    """
    if max_budget <= MIN_BUDGET:
        raise OptimizerError(f"max_budget must exceed {MIN_BUDGET}, got {max_budget}")
    rng = rng if rng is not None else np.random.default_rng(0)
    s_max = int(math.floor(math.log(max_budget / MIN_BUDGET, ETA)))
    best_config: Configuration | None = None
    best_score = math.inf
    sign = 1.0 if minimize else -1.0
    total_cost = 0.0
    brackets: list[list[HalvingRecord]] = []

    for s in range(s_max, -1, -1):
        n = int(math.ceil((s_max + 1) / (s + 1) * ETA**s))
        budgets = [max_budget * ETA ** (i - s) for i in range(s + 1)]
        candidates = space.sample_many(n, rng)

        spent = {"v": 0.0}

        def tracked(config: Configuration, budget: float) -> float:
            spent["v"] += budget
            return evaluate(config, budget)

        winner, records = successive_halving(
            candidates, tracked, budgets, eta=ETA, minimize=minimize
        )
        total_cost += spent["v"]
        brackets.append(records)
        final_score = sign * records[-1].scores[0]
        if final_score < sign * best_score or best_config is None:
            # records[-1].scores are sorted raw values; index 0 is the best.
            best_score = records[-1].scores[0]
            best_config = winner
    return HyperbandResult(best_config, float(best_score), brackets, total_cost)
