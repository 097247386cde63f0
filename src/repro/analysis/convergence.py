"""Convergence comparison harness — the engine behind most E-benchmarks.

Runs several optimizer factories against evaluator factories over multiple
seeds, collecting best-so-far curves, trials-to-target, and cost-to-target
— the sample-efficiency metrics the tutorial's offline section revolves
around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from ..core import Callback, Objective, Optimizer, TuningSession
from ..core.result import TuningResult
from ..exceptions import ReproError

__all__ = ["ComparisonResult", "compare_optimizers"]


@dataclass
class ComparisonResult:
    """Curves and summary statistics of one optimizer across seeds."""

    name: str
    results: list[TuningResult] = field(default_factory=list)

    def best_values(self) -> np.ndarray:
        return np.array([r.best_value for r in self.results])

    def mean_best(self) -> float:
        return float(self.best_values().mean())

    def mean_trials_to(self, target: float) -> float:
        """Average trials to reach target (unreached runs count the budget)."""
        counts = []
        for r in self.results:
            t = r.trials_to_reach(target)
            counts.append(t if t is not None else r.n_trials)
        return float(np.mean(counts))

    def reach_rate(self, target: float) -> float:
        hits = sum(1 for r in self.results if r.trials_to_reach(target) is not None)
        return hits / len(self.results)


def compare_optimizers(
    factories: Mapping[str, Callable[[int], Optimizer]],
    evaluator_factory: Callable[[int], Callable],
    max_trials: int,
    n_seeds: int = 3,
    callbacks_factory: Callable[[str, int], Sequence[Callback]] | None = None,
) -> dict[str, ComparisonResult]:
    """Run each optimizer factory over ``n_seeds`` fresh evaluators.

    ``factories[name](seed)`` builds the optimizer; ``evaluator_factory(seed)``
    builds a fresh evaluator (fresh system instance ⇒ independent noise) so
    methods face identical conditions per seed. ``callbacks_factory(name,
    seed)`` builds per-run callbacks — e.g. one
    :class:`~repro.telemetry.TelemetryCallback` per (optimizer, seed) so
    every leg of the race gets its own trace.
    """
    if n_seeds < 1:
        raise ReproError(f"n_seeds must be >= 1, got {n_seeds}")
    out: dict[str, ComparisonResult] = {}
    for name, factory in factories.items():
        comparison = ComparisonResult(name)
        for seed in range(n_seeds):
            optimizer = factory(seed)
            evaluator = evaluator_factory(seed)
            callbacks = callbacks_factory(name, seed) if callbacks_factory is not None else ()
            session = TuningSession(optimizer, evaluator, max_trials=max_trials, callbacks=callbacks)
            comparison.results.append(session.run())
        out[name] = comparison
    return out
