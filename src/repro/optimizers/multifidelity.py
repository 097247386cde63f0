"""Multi-fidelity optimization: mix cheap and expensive measurements.

Slide 65: "Combine expensive more accurate measurements and cheaper less
accurate ones — use cost-adjusted utility functions, e.g. cost-adjusted
Expected Improvement." Slide 66 adds the systems caveat: knowledge from
TPC-H SF1 is only partially transferable to SF100 (knob sensitivities
change), so the fidelity dimension must be *modelled*, not just scaled.

Two tools:

* :class:`MultiFidelityBO` — a GP over the joint (configuration, fidelity)
  space; each suggestion picks the (config, fidelity) pair maximising EI at
  the target fidelity per unit cost, with a guaranteed share of trials at
  full fidelity.
* :func:`successive_halving` — rung-based elimination (also the engine
  inside TUNA's noise handling, slide 71).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core import Objective, rng_digest
from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace
from ..space.encoding import OrdinalEncoder
from .gp import GaussianProcessRegressor, default_kernel
from .model_based import ModelBasedOptimizer

__all__ = ["FidelityLevel", "MultiFidelityBO", "successive_halving", "HalvingRecord"]


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


class MultiFidelityBO(ModelBasedOptimizer):
    """Joint-space GP: inputs are (encoded config, normalised fidelity).

    Observations carry their fidelity (``observe(..., fidelity=...)``). The
    acquisition is EI at the *target* fidelity divided by the candidate
    fidelity's cost; every ``full_every``-th suggestion is forced to the
    target fidelity so the incumbent is always backed by a real
    high-fidelity measurement.
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
        if len(fidelities) < 2:
            raise OptimizerError("need at least two fidelity levels")
        encoder = OrdinalEncoder(space)
        super().__init__(
            space,
            encoder=encoder,
            model=GaussianProcessRegressor(kernel=default_kernel(encoder.n_features + 1), seed=seed),
            n_init=n_init,
            n_candidates=n_candidates,
            objectives=objectives,
            seed=seed,
        )
        self.fidelities = sorted(fidelities, key=lambda f: f.value)
        self.target_fidelity = self.fidelities[-1]
        self.full_every = max(1, int(full_every))
        self.next_fidelity: FidelityLevel = self.fidelities[0]
        self._n_suggested = 0
        self._best_at_target = np.inf  # incumbent score of the last fit

    def _fid_unit(self, value: float) -> float:
        lo = self.fidelities[0].value
        hi = self.target_fidelity.value
        return (value - lo) / (hi - lo) if hi > lo else 1.0

    def _before_model(self) -> Configuration | None:
        self._n_suggested += 1
        self._model_stale = True  # the joint model refits on every suggestion
        config = super()._before_model()
        if config is not None:
            # Initial design at the cheapest fidelity.
            self.next_fidelity = self.fidelities[0]
        return config

    def _fit(self) -> bool:
        trials, X, y = self._training_set()
        target = self.target_fidelity.value
        fid = np.array([self._fid_unit(target if t.fidelity is None else t.fidelity) for t in trials])
        self.model.fit(np.column_stack([X, fid]), y)
        at_target = fid >= 0.999
        self._best_at_target = float(y[at_target].min() if at_target.any() else y.min())
        return True

    def _candidates(self) -> list[Configuration]:
        return self.space.sample_many(self.n_candidates, self.rng)

    def _pick(self, cands: list[Configuration]) -> Configuration:
        force_full = self._n_suggested % self.full_every == 0
        X = self.encoder.encode_many(cands)
        best_pair: tuple[float, Configuration, FidelityLevel] | None = None
        for level in [self.target_fidelity] if force_full else self.fidelities:
            joint = np.column_stack([X, np.full(len(X), self._fid_unit(level.value))])
            mean, std = self.model.predict(joint, return_std=True)
            ei = self.acquisition(mean, std, self._best_at_target)
            # Low-fidelity probes are discounted by their transferability:
            # correlation decays as fidelity departs from the target.
            afinity = 0.3 + 0.7 * self._fid_unit(level.value)
            utility = ei * afinity / level.cost
            i = int(np.argmax(utility))
            if best_pair is None or utility[i] > best_pair[0]:
                best_pair = (float(utility[i]), cands[i], level)
        _, config, self.next_fidelity = best_pair
        return config

    def _digest_state(self) -> dict[str, object]:
        return {
            "n_suggested": self._n_suggested,
            "next_fidelity": float(self.next_fidelity.value),
            "model_rng": rng_digest(self.model.rng),
        }


@dataclass
class HalvingRecord:
    """Trace of one successive-halving rung."""

    rung: int
    budget: float
    survivors: list[Configuration]
    scores: list[float]


def successive_halving(
    candidates: Sequence[Configuration],
    evaluate: Callable[[Configuration, float], float],
    budgets: Sequence[float],
    eta: float = 3.0,
    minimize: bool = True,
) -> tuple[Configuration, list[HalvingRecord]]:
    """Classic successive halving over explicit budget rungs.

    ``evaluate(config, budget)`` returns a (canonical minimize) score at the
    given budget. Each rung keeps the best ``1/eta`` fraction and re-runs
    them at the next, larger budget.
    """
    if not candidates:
        raise OptimizerError("need at least one candidate")
    if not budgets:
        raise OptimizerError("need at least one budget rung")
    if eta <= 1.0:
        raise OptimizerError(f"eta must be > 1, got {eta}")
    alive = list(candidates)
    records: list[HalvingRecord] = []
    sign = 1.0 if minimize else -1.0
    for rung, budget in enumerate(budgets):
        scores = [sign * evaluate(c, budget) for c in alive]
        order = np.argsort(scores)
        keep = max(1, int(np.ceil(len(alive) / eta))) if rung < len(budgets) - 1 else 1
        alive = [alive[i] for i in order[:keep]]
        records.append(
            HalvingRecord(rung, float(budget), list(alive), [float(sign * s) for s in sorted(scores)])
        )
        if len(alive) == 1 and rung < len(budgets) - 1:
            # Re-confirm the single survivor at the final budget.
            continue
    return alive[0], records
