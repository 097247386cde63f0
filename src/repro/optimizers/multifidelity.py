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
* :class:`HyperbandOptimizer` — rung-based elimination (successive halving,
  also the idea behind TUNA's budget allocation) across Hyperband's
  brackets, ask/tell: each suggestion carries its rung's budget as its
  fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core import Objective, Optimizer, Trial, rng_digest
from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace
from ..space.encoding import OrdinalEncoder
from .gp import GaussianProcessRegressor, default_kernel
from .model_based import ModelBasedOptimizer

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


#: Hyperband's halving rate: each rung keeps the best third at three times the budget (Li et al.).
ETA = 3


class _Bracket:
    """One successive-halving run and where its current rung stands."""

    def __init__(self, budgets: list[float], queue: list[Configuration]) -> None:
        self.budgets = budgets
        self.queue = queue  # to suggest at the current rung
        self.rung = 0
        self.out = 0  # suggested at the current rung, not yet told
        self.results: list[tuple[float, Configuration]] = []  # (score, config) told at the current rung


class HyperbandOptimizer(Optimizer):
    """Hyperband (Li et al. 2018) as an ask/tell optimizer.

    Bracket ``s`` is one successive-halving run: ``n_s`` random
    configurations at budget ``max_budget / ETA**s``; once a rung is told,
    its best ``1/ETA`` are suggested again at ``ETA`` times the budget, up to
    ``max_budget``. Brackets cycle from ``s_max`` down to plain random search
    at full budget (``s = 0``); while every open bracket waits on trials, the
    next one opens. A suggestion's budget is its :meth:`suggested_fidelity`,
    and a told trial joins its rung by configuration and fidelity; one it did
    not suggest (foreign, or re-observed on resume) joins no rung. The
    incumbent is the best trial at ``max_budget``.
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
        # configuration -> (budget, bracket) of each of its suggestions not told yet
        self._slots: dict[Configuration, list[tuple[float, _Bracket]]] = {}

    def _open_bracket(self) -> _Bracket:
        s = self.s_max - self._n_opened % (self.s_max + 1)
        self._n_opened += 1
        n = int(math.ceil((self.s_max + 1) / (s + 1) * ETA**s))
        budgets = [self.max_budget / ETA ** (s - i) for i in range(s + 1)]
        bracket = _Bracket(budgets, self.space.sample_many(n, self.rng))
        self._brackets.append(bracket)
        return bracket

    def _suggest(self) -> Configuration:
        bracket = next((b for b in self._brackets if b.queue), None) or self._open_bracket()
        config = bracket.queue.pop(0)
        bracket.out += 1
        self._slots.setdefault(config, []).append((bracket.budgets[bracket.rung], bracket))
        return config

    def suggested_fidelity(self, config: Configuration) -> float | None:
        slots = self._slots.get(config)
        return slots[-1][0] if slots else None

    def _on_observe(self, trial: Trial) -> None:
        slots = self._slots.get(trial.config, [])
        match = next((k for k, (budget, _) in enumerate(slots) if budget == trial.fidelity), None)
        if match is None:
            return
        _, bracket = slots.pop(match)
        if not slots:
            del self._slots[trial.config]
        bracket.out -= 1
        score = self.objective.score(trial.metrics[self.objective.name]) if trial.ok else math.inf
        bracket.results.append((score, trial.config))  # a failure ranks last, whatever its imputation
        if bracket.queue or bracket.out:
            return
        if bracket.rung + 1 == len(bracket.budgets):
            self._brackets.remove(bracket)
            return
        ranked = sorted(bracket.results, key=lambda result: result[0])  # stable: ties keep tell order
        bracket.queue = [config for _, config in ranked[: max(1, len(ranked) // ETA)]]
        bracket.results = []
        bracket.rung += 1

    def best_config(self) -> Configuration:
        top = [t for t in self.history.completed() if t.fidelity == self.max_budget]
        if not top:
            raise OptimizerError(f"no completed trial at the top budget {self.max_budget:g} yet")
        return min(top, key=lambda t: self.objective.score(t.metric(self.objective.name))).config
