"""Structured-space BO: the activation pattern is a column (slide 61).

Configurations whose *active knob sets* differ (``jit=on`` vs ``off``) live
on different manifolds, so one stationary GP smears them together; Jenatton
et al. (2017) model tree-structured dependencies by sharing strength across
the tree. :class:`StructuredBayesianOptimizer` is BO whose model rows carry
the index of their activation pattern, read by a coregionalised kernel: one
GP learns the covariance between patterns, and a candidate is scored at its
own pattern.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core import Objective, Trial
from ..space import Configuration, ConfigurationSpace
from ..space.space import ConfigurationPool
from .bo import BayesianOptimizer

__all__ = ["StructuredBayesianOptimizer"]


class StructuredBayesianOptimizer(BayesianOptimizer):
    """BO with the activation-pattern index as a coregionalised column.

    On a space without conditions there is one pattern and no column: the
    suggestions are :class:`BayesianOptimizer`'s.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        n_init: int = 8,
        n_candidates: int = 384,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, n_init=n_init, n_candidates=n_candidates, objectives=objectives, seed=seed)
        self._pattern = {active: i for i, active in enumerate(space.activation_patterns())}
        if len(self._pattern) > 1:
            self._use_column(len(self._pattern))

    def _trial_column(self, trials: list[Trial]) -> np.ndarray | None:
        return self._candidate_column([t.config for t in trials])

    def _candidate_column(self, cands: Sequence[Configuration]) -> np.ndarray | None:
        if len(self._pattern) < 2:
            return None
        # A pool's patterns are read without building its rows.
        patterns = cands.patterns() if isinstance(cands, ConfigurationPool) else [c.active for c in cands]
        return np.array([self._pattern[active] for active in patterns])
