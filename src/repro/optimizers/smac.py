"""SMAC-style optimizer: random-forest surrogate + EI + random interleaving.

Hutter, Hoos & Leyton-Brown's sequential model-based algorithm
configuration, as cited on slide 50. The forest handles categorical and
conditional knobs natively (no imposed order), and every ``interleave``-th
model-guided suggestion is random — SMAC's guarantee against model lock-in.

The suggest hot path is fully batched: candidates come from
:func:`~repro.optimizers.acquisition.generate_candidates` (two vectorized
space calls instead of 512 Python-loop samples), the forest refits on a
cadence (``REFIT_EVERY``, mirroring the GP's contract) with warm
``partial_fit`` updates in between, and ``suggest(n>1)`` amortizes one fit
across the whole batch via constant-liar fantasies on a shared routed
candidate pool.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core import Objective, rng_digest
from ..exceptions import OptimizerError
from ..telemetry.spans import span
from ..space import Configuration, ConfigurationSpace
from ..space.encoding import OneHotEncoder
from .forest import RandomForestRegressor
from .model_based import NUMERICAL_ERRORS, ModelBasedOptimizer

__all__ = ["SMACOptimizer"]

#: Every k-th fit grows the forest from scratch; the fits in between are warm ``partial_fit`` updates.
REFIT_EVERY = 8


class SMACOptimizer(ModelBasedOptimizer):
    """Random-forest Bayesian optimization à la SMAC.

    Parameters
    ----------
    n_init:
        Random probes before the surrogate takes over.
    interleave:
        Insert one random suggestion every ``interleave`` model-guided ones
        (0 disables interleaving). Only model-phase suggestions count toward
        the interleave cycle — the ``n_init`` random phase does not shift it.
    n_candidates:
        Candidate-set size for acquisition maximisation.

    The forest grows from scratch every :data:`REFIT_EVERY`-th fit; the fits
    in between are warm
    :meth:`~repro.optimizers.forest.RandomForestRegressor.partial_fit`
    updates (online bagging + bounded regrowth). The same cadence contract as
    the GP's hyperparameter refits.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        n_init: int = 8,
        interleave: int = 4,
        n_candidates: int = 512,
        n_trees: int = 24,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        if interleave < 0:
            raise OptimizerError(f"interleave must be >= 0, got {interleave}")
        super().__init__(
            space,
            encoder=OneHotEncoder(space),
            model=RandomForestRegressor(n_trees=n_trees, seed=seed),
            n_init=n_init,
            n_candidates=n_candidates,
            objectives=objectives,
            seed=seed,
        )
        self.interleave = int(interleave)
        # Model-guided suggestions only: the n_init random phase must not
        # shift the interleave cycle.
        self._suggestion_count = 0
        self._fit_count = 0
        # (trial ids, training y) the forest was last fitted on — a warm
        # partial_fit is only sound while the new data is a strict extension
        # of this prefix (crash-score re-imputation rewrites old y values,
        # which forces a full refit).
        self._fitted_ids: tuple[int, ...] = ()
        self._fitted_y: np.ndarray = np.empty(0)

    def _fit(self) -> bool:
        trials, X, y = self._training_set()
        ids = tuple(t.trial_id for t in trials)
        k = len(self._fitted_ids)
        warm = (
            self.model.is_fitted
            and self._fit_count % REFIT_EVERY != 0
            and len(ids) > k
            and ids[:k] == self._fitted_ids
            and np.array_equal(y[:k], self._fitted_y)
        )
        if warm:
            self.model.partial_fit(X[k:], y[k:])
        else:
            self.model.fit(X, y)
        self._fit_count += 1
        self._fitted_ids = ids
        self._fitted_y = y.copy()
        return True

    def _digest_state(self) -> dict[str, object]:
        return {
            "suggestion_count": self._suggestion_count,
            "fit_count": self._fit_count,
            "fitted_n": len(self._fitted_ids),
            "model_rng": rng_digest(self.model.rng),
        }

    # -- suggest ---------------------------------------------------------------
    def _interleave_due(self) -> bool:
        """Advance the model-phase counter; True on every (interleave+1)-th."""
        self._suggestion_count += 1
        return bool(self.interleave) and self._suggestion_count % (self.interleave + 1) == 0

    def _before_model(self) -> Configuration | None:
        config = super()._before_model()
        if config is None and self._interleave_due():
            config = self.space.sample(self.rng)
        return config

    def _suggest_batch(self, n: int) -> list[Configuration] | None:
        """Constant-liar batch: one fit + one routed pool for all ``n`` picks.

        Each pick fantasizes the incumbent score at the chosen point, which
        deflates nearby leaves' EI and pushes later picks elsewhere. The
        candidate pool is routed through the forest once — fantasies only
        touch leaf statistics, never split structure, so every rescoring is
        a cheap gather. Fantasies are discarded before returning (the
        ``finally`` guarantees the honest posterior even on error).
        """
        if len(self.history.completed()) < self.n_init:
            return None  # init phase: independent random draws
        try:
            self._refresh_model()
        except NUMERICAL_ERRORS:  # fall back to the per-suggest path, which
            return None  # retries the fit and emits optimizer.degraded
        best_score = float(self.history.scores().min())
        out: list[Configuration] = []
        pool: Sequence[Configuration] | None = None
        try:
            for _ in range(n):
                if self._interleave_due():
                    # One interleaved random pick per due slot; the slots are
                    # interleaved with sequential fantasy updates, so they
                    # cannot be drawn as one batch up front.
                    out.append(self.space.sample(self.rng))  # repro: noqa AST204
                    continue
                if pool is None:
                    with span("acquisition.optimize", n_candidates=self.n_candidates):
                        pool = self._candidates()
                        X = self.encoder.encode_many(pool)
                        leaves = self.model.route_leaves(X)
                        taken = np.zeros(len(pool), dtype=bool)
                mean, std = self.model.predict_from_leaves(leaves)
                scores = self.acquisition(mean, std, best_score)
                scores = np.where(taken, -np.inf, scores)
                k = int(np.argmax(scores))
                taken[k] = True
                out.append(pool[k])
                self.model.add_fantasy(X[k], best_score)
        finally:
            self.model.clear_fantasies()
        return out
