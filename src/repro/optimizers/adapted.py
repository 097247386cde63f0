"""Optimizing through a space adapter (LlamaTune-style pipelines).

:class:`ProjectedOptimizer` exposes the *target* space to the tuning
session while internally driving any optimizer over the adapter's smaller
*adapted* space. Each suggestion's memo is its latent point and that
point's number in the inner optimizer, so the inner model trains on the
point it proposed even when a bucketised projection merges two of them.
"""

from __future__ import annotations

from typing import Callable

from ..core import Objective, Optimizer, Trial
from ..exceptions import OptimizerError
from ..space import Configuration
from ..space.adapters import SpaceAdapter

__all__ = ["ProjectedOptimizer"]


class ProjectedOptimizer(Optimizer):
    """Tune a big space by searching a small adapted one.

    Parameters
    ----------
    adapter:
        Maps adapted-space points into the target space (e.g.
        :class:`~repro.space.adapters.LlamaTuneAdapter`).
    inner_factory:
        Builds the optimizer over ``adapter.adapted_space`` (e.g.
        ``lambda s: BayesianOptimizer(s, seed=0)``).
    """

    def __init__(
        self,
        adapter: SpaceAdapter,
        inner_factory: Callable[..., Optimizer],
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(adapter.target_space, objectives, seed=seed)
        self.adapter = adapter
        self.inner = inner_factory(adapter.adapted_space)

    def _suggest(self) -> tuple[Configuration, tuple[Configuration, int]]:
        latent = self.inner.suggest(1)[0]
        return self.adapter.project(latent), (latent, self.inner.n_suggested - 1)

    def forget(self, number: int) -> tuple[Configuration, int] | None:
        memo = super().forget(number)
        if memo is not None:
            self.inner.forget(memo[1])
        return memo

    def _on_observe(self, trial: Trial, memo: tuple[Configuration, int] | None) -> None:
        if memo is None:
            # Observation for a config we did not project (e.g. warm start):
            # the latent optimizer cannot learn from it.
            return
        latent, number = memo
        self.inner.observe(latent, trial.metrics, cost=trial.cost, status=trial.status, suggestion=number)
