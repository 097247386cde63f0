"""Knob-importance ranking — "Focus on the Important Knobs!" (slide 68).

* :class:`LassoImportance` — OtterTune's approach: L1-regularised linear
  regression of the score on standardised knob features; knobs whose
  coefficient blocks survive shrinkage are the important ones. Implemented
  as from-scratch coordinate descent.
* :func:`permutation_importance` — the model-agnostic, SHAP-adjacent
  ranking: permute one knob's column and measure how much a surrogate's
  error grows.

Both need "historical values to work from" — a tuning history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import History, Objective
from ..exceptions import OptimizerError
from ..optimizers.forest import RandomForestRegressor
from ..space import ConfigurationSpace
from ..space.encoding import OneHotEncoder

__all__ = ["lasso_coordinate_descent", "LassoImportance", "permutation_importance", "KnobRanking"]

#: Coordinate-descent sweeps at most, and the largest weight change that counts as converged.
LASSO_MAX_ITER = 500
LASSO_TOL = 1e-6
#: Points on the geometric α grid of the Lasso path.
N_ALPHAS = 20
#: Permutations averaged per knob.
N_REPEATS = 5


def lasso_coordinate_descent(X: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Solve ``min ½‖y − Xw‖²/n + α‖w‖₁`` by cyclic coordinate descent.

    Expects standardised columns; returns the weight vector.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n, d = X.shape
    if n != len(y):
        raise OptimizerError(f"X and y disagree: {n} vs {len(y)}")
    if alpha < 0:
        raise OptimizerError(f"alpha must be >= 0, got {alpha}")
    w = np.zeros(d)
    col_sq = (X * X).sum(axis=0) / n
    residual = y - X @ w
    for _ in range(LASSO_MAX_ITER):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] <= 1e-15:
                continue
            rho = float(X[:, j] @ (residual + X[:, j] * w[j])) / n
            new_w = np.sign(rho) * max(0.0, abs(rho) - alpha) / col_sq[j]
            delta = new_w - w[j]
            if delta != 0.0:
                residual -= X[:, j] * delta
                w[j] = new_w
                max_delta = max(max_delta, abs(delta))
        if max_delta < LASSO_TOL:
            break
    return w


@dataclass(frozen=True)
class KnobRanking:
    """Importance scores per knob, sorted descending."""

    knobs: tuple[str, ...]
    scores: tuple[float, ...]

    def top(self, k: int) -> list[str]:
        return list(self.knobs[:k])


class LassoImportance:
    """OtterTune-style knob ranking via the Lasso path.

    Knobs are scored by the largest |coefficient| across their one-hot
    feature block along a geometric grid of α values; features that enter
    the path earlier (survive stronger shrinkage) score higher.
    """

    def __init__(self, space: ConfigurationSpace) -> None:
        self.space = space
        self.encoder = OneHotEncoder(space)

    def _design(self, history: History, objective: Objective) -> tuple[np.ndarray, np.ndarray]:
        done = history.completed()
        if len(done) < 5:
            raise OptimizerError(f"need >= 5 completed trials, got {len(done)}")
        X = self.encoder.encode_many([t.config for t in done])
        y = np.array([objective.score(t.metric(objective.name)) for t in done])
        X = (X - X.mean(axis=0)) / np.where(X.std(axis=0) > 0, X.std(axis=0), 1.0)
        y = (y - y.mean()) / (y.std() or 1.0)
        return X, y

    def rank(self, history: History, objective: Objective | None = None) -> KnobRanking:
        objective = objective or history.primary
        X, y = self._design(history, objective)
        n = len(y)
        alpha_max = float(np.abs(X.T @ y).max()) / n
        alphas = alpha_max * np.geomspace(1.0, 1e-3, N_ALPHAS)
        entry_alpha = np.zeros(X.shape[1])  # strongest alpha at which each feature is active
        coef_mag = np.zeros(X.shape[1])
        for alpha in alphas:
            w = lasso_coordinate_descent(X, y, alpha)
            newly = (np.abs(w) > 1e-10) & (entry_alpha == 0)
            entry_alpha[newly] = alpha
            coef_mag = np.maximum(coef_mag, np.abs(w))
        # Feature score: entry strength (primary) + magnitude (tiebreak).
        feature_score = entry_alpha / alpha_max + 1e-3 * coef_mag
        scores = {}
        for name, start, width in self.encoder._blocks:
            scores[name] = float(feature_score[start:start + width].max())
        ordered = sorted(scores.items(), key=lambda kv: -kv[1])
        return KnobRanking(tuple(k for k, _ in ordered), tuple(v for _, v in ordered))


def permutation_importance(
    space: ConfigurationSpace,
    history: History,
    objective: Objective | None = None,
    seed: int | None = None,
) -> KnobRanking:
    """Model-agnostic importance: fit a forest, permute each knob's block,
    score by the increase in prediction error.

    The forest is deliberately regularized (moderate depth,
    min_samples_leaf > 1): an overfit forest memorises noise and then
    reports noise columns as "important" when permuted.
    """
    objective = objective or history.primary
    done = history.completed()
    if len(done) < 10:
        raise OptimizerError(f"need >= 10 completed trials, got {len(done)}")
    encoder = OneHotEncoder(space)
    X = encoder.encode_many([t.config for t in done])
    y = np.array([objective.score(t.metric(objective.name)) for t in done])
    rng = np.random.default_rng(seed)
    model = RandomForestRegressor(n_trees=64, max_depth=10, min_samples_leaf=4, seed=seed)
    model.fit(X, y)
    base_mse = float(np.mean((model.predict(X) - y) ** 2))
    scores = {}
    for name, start, width in encoder._blocks:
        increases = []
        for _ in range(N_REPEATS):
            Xp = X.copy()
            perm = rng.permutation(len(X))
            Xp[:, start:start + width] = X[perm, start:start + width]
            mse = float(np.mean((model.predict(Xp) - y) ** 2))
            increases.append(mse - base_mse)
        scores[name] = max(0.0, float(np.mean(increases)))
    ordered = sorted(scores.items(), key=lambda kv: -kv[1])
    return KnobRanking(tuple(k for k, _ in ordered), tuple(v for _, v in ordered))
