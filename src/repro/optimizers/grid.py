"""Grid search — the tutorial's "[Not so] Naïve Approach".

Fixed trial budget, values at even intervals, try all, pick the best.
Exhaustive and embarrassingly parallel, but sample cost explodes with
dimensionality — which is precisely the lesson of slides 29–31.
"""

from __future__ import annotations

from ..core import Objective, Optimizer, Trial
from ..exceptions import ExhaustedError
from ..space import Configuration, ConfigurationSpace

__all__ = ["GridSearchOptimizer"]


class GridSearchOptimizer(Optimizer):
    """Enumerates a Cartesian lattice over the space.

    Parameters
    ----------
    points_per_dim:
        Lattice resolution for numeric knobs; categoricals enumerate all
        choices.
    shuffle:
        Visit lattice points in random order — improves anytime behaviour
        when the budget is smaller than the grid.

    A lattice point already in the history is passed over, so a resumed
    session (warm-started on its journal, cursor back at 0) tries the
    points it has not tried yet.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        points_per_dim: int = 5,
        shuffle: bool = False,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, objectives, seed=seed)
        self._grid = space.grid(points_per_dim=points_per_dim)
        if shuffle:
            self.rng.shuffle(self._grid)
        self._cursor = 0
        self._tried: set[Configuration] = set()
        self.max_suggestions = len(self._grid)

    def _suggest(self) -> Configuration:
        while self._cursor < len(self._grid) and self._grid[self._cursor] in self._tried:
            self._cursor += 1
        if self._cursor >= len(self._grid):
            raise ExhaustedError(
                f"grid of {len(self._grid)} points exhausted; increase points_per_dim"
            )
        config = self._grid[self._cursor]
        self._cursor += 1
        return config

    def _on_observe(self, trial: Trial, memo: object) -> None:
        self._tried.add(trial.config)

    def _digest_state(self) -> dict[str, object]:
        return {"cursor": self._cursor, "grid_size": len(self._grid)}
