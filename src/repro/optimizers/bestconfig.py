"""BestConfig-style divide-and-conquer sampling (SoCC 2017, slide 81).

BestConfig alternates *divide-and-diverge sampling* (Latin-hypercube-like
coverage of the whole space) with *recursive bound-and-search* (resampling
inside a shrinking box around the best point so far). No model — just
disciplined sampling — which made it a popular lightweight baseline.
"""

from __future__ import annotations

import numpy as np

from ..core import Objective, Optimizer, Trial
from ..exceptions import OptimizerError, SpaceError
from ..space import Configuration, ConfigurationSpace

__all__ = ["BestConfigOptimizer"]

#: Box shrink factor per bound-and-search round.
SHRINK = 0.5


class BestConfigOptimizer(Optimizer):
    """Alternating diverge/bound-and-search rounds.

    Parameters
    ----------
    round_size:
        Samples per round.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        round_size: int = 10,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, objectives, seed=seed)
        if round_size < 2:
            raise OptimizerError(f"round_size must be >= 2, got {round_size}")
        self.round_size = int(round_size)
        self._queue: list[Configuration] = []
        self._round = 0
        self._radius = 0.5  # half-width of the current search box (unit space)

    def _lhs_round(self) -> list[Configuration]:
        """Divide-and-diverge: stratified (LHS) coverage of the full cube."""
        n, d = self.round_size, self.space.n_dims
        grid = (np.argsort(self.rng.random((d, n)), axis=1).T + self.rng.random((n, d))) / n
        out = []
        for row in grid:
            try:
                out.append(self.space.from_unit_array(row, check_constraints=True))
            except SpaceError:
                # One draw per rare infeasible LHS row, not a hot loop.
                out.append(self.space.sample(self.rng))  # repro: noqa AST204
        return out

    def _bounded_round(self, center: Configuration) -> list[Configuration]:
        """Bound-and-search: LHS inside a shrinking box around the incumbent."""
        c = self.space.to_unit_array(center)
        lo = np.clip(c - self._radius, 0.0, 1.0)
        hi = np.clip(c + self._radius, 0.0, 1.0)
        n, d = self.round_size, self.space.n_dims
        grid = (np.argsort(self.rng.random((d, n)), axis=1).T + self.rng.random((n, d))) / n
        out = []
        for row in grid:
            point = lo + row * (hi - lo)
            try:
                out.append(self.space.from_unit_array(point, check_constraints=True))
            except SpaceError:
                # Same: fallback for the occasional infeasible box point.
                out.append(self.space.neighbor(center, self.rng, scale=self._radius))  # repro: noqa AST204
        return out

    def _refill(self) -> None:
        self._round += 1
        try:
            incumbent = self.history.best().config
        except OptimizerError:
            incumbent = None
        if incumbent is None or self._round % 2 == 1:
            self._queue = self._lhs_round()
        else:
            self._queue = self._bounded_round(incumbent)
            self._radius = max(0.02, self._radius * SHRINK)

    def _suggest(self) -> Configuration:
        if not self._queue:
            self._refill()
        return self._queue.pop(0)

    def _on_observe(self, trial: Trial, memo: object) -> None:
        pass  # sampling plan is refreshed lazily per round
