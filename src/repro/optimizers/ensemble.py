"""OpenTuner-style ensemble: multiple search techniques, one budget.

Slide 5 lists OpenTuner among the generic autotuning frameworks; its core
idea is *technique allocation* — run several search algorithms against the
same result bank and let a bandit shift trials toward whichever is
currently producing improvements (credit assignment by area-under-curve).

:class:`EnsembleOptimizer` wraps any set of ask/tell optimizers. Each
suggestion is drawn from one member (UCB1 over improvement credit), whose
name and number for it are the memo; every observation is shared with *all*
members, so no one starves for data. A member learns its own suggestions by
number; a sibling's trial reaches it as a foreign one.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core import Objective, Optimizer, Trial
from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace

__all__ = ["EnsembleOptimizer"]

#: Exploration constant of the allocation bandit.
UCB_C = 1.0
#: Exponential decay of past credit, so allocation tracks which technique is good *now*.
CREDIT_DECAY = 0.95


class EnsembleOptimizer(Optimizer):
    """Technique-allocating meta-optimizer.

    Parameters
    ----------
    members:
        Mapping name → optimizer factory ``space -> Optimizer``. Members
        must be single-objective and share this optimizer's objective.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        members: Mapping[str, Callable[[ConfigurationSpace], Optimizer]],
        objectives: Objective | Sequence[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, objectives, seed=seed)
        if len(members) < 2:
            raise OptimizerError("an ensemble needs at least 2 member techniques")
        self.members: dict[str, Optimizer] = {}
        for name, factory in members.items():
            member = factory(space)
            member.objectives = [self.objective]
            member.history.objectives = [self.objective]
            self.members[name] = member
        self._credit = {name: 0.0 for name in self.members}
        self._best_score = math.inf

    # -- allocation ----------------------------------------------------------
    def _pick_member(self) -> str:
        pulls = self.allocation()
        for name, n in pulls.items():
            if n == 0:
                return name
        total = sum(pulls.values())
        scores = {
            name: self._credit[name] / pulls[name]
            + UCB_C * math.sqrt(math.log(total) / pulls[name])
            for name in self.members
        }
        return max(scores, key=scores.get)

    def allocation(self) -> dict[str, int]:
        """How many suggestions each technique has produced so far."""
        return {name: member.n_suggested for name, member in self.members.items()}

    # -- ask/tell ------------------------------------------------------------------
    def _suggest(self) -> tuple[Configuration, tuple[str, int]]:
        name = self._pick_member()
        member = self.members[name]
        return member.suggest(1)[0], (name, member.n_suggested - 1)

    def forget(self, number: int) -> tuple[str, int] | None:
        memo = super().forget(number)
        if memo is not None:
            self.members[memo[0]].forget(memo[1])
        return memo

    def _on_observe(self, trial: Trial, memo: tuple[str, int] | None) -> None:
        producer, number = memo if memo is not None else (None, -1)
        obj = self.objective
        score = obj.score(trial.metric(obj.name)) if obj.name in trial.metrics else math.inf
        # Credit: normalised improvement over the incumbent (0 if none).
        if score < self._best_score:
            if math.isfinite(self._best_score):
                improvement = (self._best_score - score) / (abs(self._best_score) + 1e-12)
            else:
                improvement = 1.0
            self._best_score = score
        else:
            improvement = 0.0
        for name in self._credit:
            self._credit[name] *= CREDIT_DECAY
        if producer is not None:
            self._credit[producer] += min(1.0, improvement)
        # Shared result bank: every member sees every trial, as its own suggestion's or as a foreign one.
        for name, member in self.members.items():
            own = number if name == producer else -1
            member.observe(trial.config, trial.metrics, cost=trial.cost, status=trial.status, suggestion=own)
