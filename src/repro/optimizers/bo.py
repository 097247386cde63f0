"""Bayesian optimization — sequential model-based optimization (slide 33).

1. Evaluate the expensive function f(xᵢ);
2. update the statistical model M with (xᵢ, f(xᵢ));
3. pick x_{i+1} = argmax AF(M, x);
4. repeat.

The surrogate is a GP over encoded configurations; acquisition optimization
uses a candidate set (global random samples + local perturbations of the
incumbent) because the encoded space is a mixed discrete/continuous box.
Batch suggestions use the constant-liar trick for diversity (slide 57).

Every GP technique is this optimizer plus a column, a target or a score, so
all of them share its candidate generator, hyper-fit cadence, incremental
Cholesky and constant-liar batches:

* a **column** — trials that fall into a few groups (activation patterns,
  fidelity levels, tasks) get one integer column on every model row, read by
  ``Coregionalized(Matern(ARD), k) + WhiteKernel``; trials that carry a
  continuous context (OnlineTune's observation vector) get those context
  columns, read by a wider stationary kernel. Without a column, nothing
  changes;
* a **target** — ParEGO's ``_training_set`` returns the scalarised scores;
* a **score** — ``_scores`` reweights or rescales the acquisition (constrained
  BO's probability of feasibility, multi-task's raw-unit EI).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core import Objective, Trial, rng_digest
from ..core.optimizer import Suggested
from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace
from ..space.encoding import OneHotEncoder, OrdinalEncoder, SpaceEncoder
from .acquisition import AcquisitionFunction
from .gp import GaussianProcessRegressor, default_kernel
from .kernels import Coregionalized, Matern, WhiteKernel
from .model_based import ModelBasedOptimizer

__all__ = ["BayesianOptimizer"]

#: Every k-th fit re-optimises the GP hyperparameters; the fits in between only condition.
REFIT_EVERY = 4


class BayesianOptimizer(ModelBasedOptimizer):
    """GP-based Bayesian optimization over a configuration space.

    Parameters
    ----------
    space:
        The knobs to tune.
    n_init:
        Random (prior-guided) probes before the model takes over.
    acquisition:
        Acquisition function; Expected Improvement by default.
    encoding:
        "ordinal" (one dim/knob) or "onehot" (one dim per category) —
        the discrete/hybrid handling choices from slide 51.
    n_candidates:
        Candidate-set size for acquisition maximisation.

    GP hyperparameters are re-optimised every :data:`REFIT_EVERY`-th fit
    (conditioning on new data happens every trial regardless).
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        n_init: int = 8,
        acquisition: AcquisitionFunction | None = None,
        encoding: str = "ordinal",
        n_candidates: int = 512,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        if n_candidates < 2:
            raise OptimizerError(f"n_candidates must be >= 2, got {n_candidates}")
        encoder = self._make_encoder(encoding, space)
        super().__init__(
            space,
            encoder=encoder,
            model=GaussianProcessRegressor(kernel=default_kernel(encoder.n_features), seed=seed),
            n_init=n_init,
            n_candidates=n_candidates,
            acquisition=acquisition,
            objectives=objectives,
            seed=seed,
        )
        self._fit_count = 0
        # Constant-liar state for batch suggestions: the batch's picks so far, with their memos.
        self._lies: list[tuple[Configuration, Any]] = []
        self._fantasies_total = 0

    @staticmethod
    def _make_encoder(encoding: str, space: ConfigurationSpace) -> SpaceEncoder:
        if encoding == "ordinal":
            return OrdinalEncoder(space)
        if encoding == "onehot":
            return OneHotEncoder(space)
        raise OptimizerError(f"encoding must be 'ordinal' or 'onehot', got {encoding!r}")

    # -- the column ------------------------------------------------------------
    def _trial_column(self, trials: list[Trial]) -> np.ndarray | None:
        """Hook: the column value(s) of each training trial, appended to its
        model row; ``None`` (the default) is no column. Either an integer group
        (n,), read by ``Coregionalized`` once the constructor calls
        :meth:`_use_column`, or a continuous context (n, c), read by a
        stationary kernel c dimensions wider."""
        return None

    def _candidate_column(self, cands: list[Configuration]) -> np.ndarray | None:
        """Hook: the column value(s) each candidate is scored at, and a
        constant-liar fantasy of it fitted at (its group, or the live context)."""
        return None

    def _lie_column(self, lies: list[tuple[Configuration, Any]]) -> np.ndarray | None:
        """Hook: the column each (pick, memo) of a constant-liar batch is fitted at (default: where scored)."""
        return self._candidate_column([config for config, _ in lies])

    def _use_column(self, k: int) -> None:
        """Read a column of ``k`` ≥ 2 values through a coregionalised kernel."""
        ard = Matern(np.full(self.encoder.n_features, 0.3), nu=2.5)
        self.model.kernel = Coregionalized(ard, k) + WhiteKernel(1e-3)

    @staticmethod
    def _with_column(X: np.ndarray, column: np.ndarray | None) -> np.ndarray:
        return X if column is None else np.column_stack([X, column])

    def _fit(self) -> bool:
        trials, X, y = self._training_set()
        X = self._with_column(X, self._trial_column(trials))
        # Lie fits (mid-batch refits on fantasized rows) never re-optimize
        # hyperparameters and don't advance the refit cadence — a batch of k
        # must not burn k cadence slots.
        fantasizing = bool(self._lies)
        if fantasizing:
            lies = np.stack([self.encoder.encode(config) for config, _ in self._lies])
            X = np.vstack([X, self._with_column(lies, self._lie_column(self._lies))])
            y = np.concatenate([y, np.full(len(self._lies), y.min())])
        self.model.optimize_hypers = not fantasizing and self._fit_count % REFIT_EVERY == 0
        self.model.fit(X, y)
        if not fantasizing:
            self._fit_count += 1
        return True

    def _features(self, configs: list[Configuration]) -> np.ndarray:
        return self._with_column(self.encoder.encode_many(configs), self._candidate_column(configs))

    def _suggest_batch(self, n: int) -> list[Suggested]:
        """Batch suggestion with constant-liar fantasies for diversity.

        Each pick appends a fantasized row (the incumbent's score imputed at
        the chosen point) and reconditions the GP on it — without touching
        hyperparameters, so the batch costs one hyperparameter fit plus
        ``n−1`` cheap reconditionings. Fantasies are discarded before
        returning. Each pick is a lie with its memo, so the next fantasy fit
        can read it (multi-fidelity BO's level column).
        """
        out: list[Suggested] = []
        try:
            for _ in range(n):
                suggestion = self._suggest()
                out.append(suggestion)
                self._lies.append(suggestion if isinstance(suggestion, tuple) else (suggestion, None))
                self._fantasies_total += 1
                self._model_stale = True
        finally:
            self._lies.clear()
            self._model_stale = True
        return out

    def _digest_state(self) -> dict[str, object]:
        return {
            "fit_count": self._fit_count,
            "fantasies_total": self._fantasies_total,
            "pending_lies": len(self._lies),
            "model_rng": rng_digest(self.model.rng),
        }

    def surrogate_stats(self) -> dict[str, float]:
        out = super().surrogate_stats()
        out["pending_fantasies"] = float(len(self._lies))
        out["fantasies_total"] = float(self._fantasies_total)
        return out

    # -- introspection --------------------------------------------------------------------
