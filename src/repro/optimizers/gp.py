"""Gaussian-process regression — the surrogate model M of the tutorial.

"Model random functions f̂ ~ GP(μ(x), Σ(x, x′)) … condition on observed
points, extract the expected function and confidence interval." This is a
from-scratch implementation: Cholesky conditioning (the slide's closed
form), marginal-likelihood hyperparameter fitting, and posterior sampling.

Hot-path notes (the suggest loop refits this model every trial):

* When the kernel hyperparameters are unchanged and the training matrix
  only grew by appended rows, :meth:`fit` extends the existing Cholesky
  factor by a rank-k block update — O(n²·k) instead of the O(n³) full
  factorization. Parity with the full recompute is exact up to floating-
  point rounding; any doubt (refit, jitter escalation, shrunk or edited
  history) falls back to the full path.
* The model keeps L⁻¹, not L: the Cholesky factor is inverted once per
  factorization (:func:`~repro.optimizers._dense.tri_inv`, blocked and
  recursive), K⁻¹ = L⁻ᵀL⁻¹ is LAPACK's ``potri`` (n³ flops, where two
  triangular solves against the identity cost 2n³), α = L⁻ᵀ(L⁻¹y), and
  :meth:`predict`'s triangular solve against the cross-covariance is a
  matrix product. The incremental update extends L⁻¹ by the same block
  formula. Everything is numpy: the GP family imports no scipy.
* Hyperparameter search uses analytic marginal-likelihood gradients via
  ``kernel(X, eval_gradient=True)`` — one kernel-matrix construction per
  NLL evaluation, and the kernel contracts ∂K/∂θ against the weight matrix
  instead of materialising it, so an evaluation holds O(n²) beside the
  kernel's cached distance tensor. That cache lives for one fit: the
  hyper-fit and the recompute after it share it, and :meth:`fit` drops it
  before returning, so between fits the model holds X, y, α and L⁻¹ —
  O(n²), never the (n, n, d) tensor. The search is the in-tree projected
  L-BFGS :func:`~repro.optimizers._dense.minimize_box` (memory 10,
  L-BFGS-B's stopping rules). The gradient-free ``_nll`` is what
  :meth:`log_marginal_likelihood` reports and what the tests difference
  numerically; the search never calls it.
* :attr:`stats` (a :class:`SurrogateStats`) counts NLL evaluations,
  kernel-matrix constructions, full vs incremental Cholesky updates, and
  accumulates factorization wall-clock, so callers can wire surrogate
  timings into telemetry.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from ..exceptions import NotFittedError, OptimizerError
from ..telemetry.spans import emit_event, span
from ._dense import cholesky, minimize_box, tri_inv
from .kernels import ConstantKernel, Kernel, Matern, WhiteKernel

__all__ = ["GaussianProcessRegressor", "SurrogateStats", "default_kernel"]

#: Random restarts of the hyperparameter search, beside the start from the current θ.
N_RESTARTS = 1


def default_kernel(ard_dims: int | None = None) -> Kernel:
    """The BO workhorse: scaled Matérn-5/2 plus learned white noise."""
    length_scale = np.full(ard_dims, 0.3) if ard_dims else 0.3
    return ConstantKernel(1.0) * Matern(length_scale, nu=2.5) + WhiteKernel(1e-3)


@dataclass
class SurrogateStats:
    """Cumulative hot-path counters and timings for one GP instance."""

    fits: int = 0
    cholesky_full: int = 0
    cholesky_incremental: int = 0
    cholesky_ms: float = 0.0
    fit_ms: float = 0.0
    nll_evals: int = 0
    nll_grad_evals: int = 0
    kernel_constructions: int = 0
    jitter_escalations: int = 0

    def to_dict(self) -> dict[str, float]:
        return {k: float(v) for k, v in asdict(self).items()}


class GaussianProcessRegressor:
    """GP regression on (typically unit-cube) inputs.

    Parameters
    ----------
    kernel:
        Covariance function; defaults to Constant × Matérn(2.5) + White.
    optimize_hypers:
        Maximise the log marginal likelihood over kernel hyperparameters on
        each :meth:`fit`.
    jitter:
        Diagonal stabiliser added before Cholesky.

    Targets are standardised internally (predictions are de-standardised).
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        optimize_hypers: bool = True,
        jitter: float = 1e-8,
        seed: int | None = None,
    ) -> None:
        self.kernel = kernel if kernel is not None else default_kernel()
        self.optimize_hypers = optimize_hypers
        self.jitter = float(jitter)
        self.rng = np.random.default_rng(seed)
        self.stats = SurrogateStats()
        self._X: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._L_inv: np.ndarray | None = None  # inverse of K's lower Cholesky factor
        self._y_mean = 0.0
        self._y_std = 1.0
        # Incremental-update bookkeeping: the θ the current factor was built
        # with, and whether it needed an escalated jitter (which disables the
        # incremental path until the next clean full factorization).
        self._chol_theta: np.ndarray | None = None
        self._jitter_escalated = False

    # -- fitting --------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        t0 = time.perf_counter()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(X) != len(y):
            raise OptimizerError(f"X and y disagree: {len(X)} vs {len(y)}")
        if len(X) == 0:
            raise OptimizerError("cannot fit a GP to zero observations")
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        self._y = (y - self._y_mean) / self._y_std

        if self.optimize_hypers and len(X) >= 2:
            self._X = X
            self._optimize_theta()
            self._recompute()
        else:
            n_old = self._appendable_rows(X)
            if n_old is None:
                self._X = X
                self._recompute()
            else:
                self._update_incremental(X, n_old)
        self._drop_kernel_caches()
        self.stats.fits += 1
        self.stats.fit_ms += (time.perf_counter() - t0) * 1e3
        return self

    def _appendable_rows(self, X: np.ndarray) -> int | None:
        """Rows of the current factor reusable for ``X``, or None.

        The incremental path is valid only when the previous training matrix
        is an unchanged prefix of ``X``, the kernel hyperparameters match the
        ones the factor was computed with, and that factorization did not
        need jitter escalation.
        """
        if self._L_inv is None or self._X is None or self._chol_theta is None:
            return None
        if self._jitter_escalated:
            return None
        n_old = len(self._X)
        if len(X) < n_old or X.shape[1] != self._X.shape[1]:
            return None
        if not np.array_equal(self.kernel.theta, self._chol_theta):
            return None
        if not np.array_equal(X[:n_old], self._X):
            return None
        return n_old

    def _drop_kernel_caches(self) -> None:
        """End of a fit: the distance tensor served its θ evaluations and its
        recompute, and a fitted model keeps X, y, α and L⁻¹ only — O(n²)."""
        for kernel in self.kernel.walk():
            kernel.drop_cache()

    def _update_incremental(self, X: np.ndarray, n_old: int) -> None:
        """Extend the inverse Cholesky factor by the appended rows of ``X``.

        Block update: with K = [[K11, K12], [K12ᵀ, K22]] and K11 = L Lᵀ, the
        new factor is [[L, 0], [L12ᵀ, L22]] where L12 = L⁻¹K12 and
        L22 L22ᵀ = K22 − L12ᵀL12, so its inverse is
        [[L⁻¹, 0], [−L22⁻¹L12ᵀL⁻¹, L22⁻¹]]. Cost is O(n²·k) for k appended rows.
        """
        k = len(X) - n_old
        if k == 0:
            # Same inputs, (possibly) new targets: only α changes — O(n²).
            self._alpha = self._solve(self._y)
            return
        t0 = time.perf_counter()
        X_new = X[n_old:]
        K12 = self.kernel(self._X, X_new)
        K22 = self.kernel(X_new) + self.jitter * np.eye(k)
        L12 = self._L_inv @ K12
        try:
            L22_inv = tri_inv(cholesky(K22 - L12.T @ L12))
        except np.linalg.LinAlgError:
            # Schur complement lost positive-definiteness (near-duplicate
            # rows): fall back to the full path with jitter escalation.
            self._X = X
            self._recompute()
            return
        n = len(X)
        L_inv = np.zeros((n, n))
        L_inv[:n_old, :n_old] = self._L_inv
        L_inv[n_old:, :n_old] = -L22_inv @ (L12.T @ self._L_inv)
        L_inv[n_old:, n_old:] = L22_inv
        self._L_inv = L_inv
        self._X = X
        self._alpha = self._solve(self._y)
        self.stats.cholesky_incremental += 1
        self.stats.cholesky_ms += (time.perf_counter() - t0) * 1e3

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """K⁻¹b through the stored inverse factor: L⁻ᵀ(L⁻¹b)."""
        return self._L_inv.T @ (self._L_inv @ b)

    def _nll(self, theta: np.ndarray) -> float:
        self.stats.nll_evals += 1
        self.stats.kernel_constructions += 1
        self.kernel.theta = theta
        K = self.kernel(self._X) + self.jitter * np.eye(len(self._X))
        try:
            L = cholesky(K)
        except np.linalg.LinAlgError:
            return 1e25
        L_inv = tri_inv(L)
        alpha = L_inv.T @ (L_inv @ self._y)
        nll = (
            0.5 * float(self._y @ alpha)
            + float(np.log(np.diag(L)).sum())
            + 0.5 * len(self._X) * math.log(2.0 * math.pi)
        )
        return nll if np.isfinite(nll) else 1e25

    def _nll_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """NLL and its analytic gradient — one kernel construction per call.

        ∂NLL/∂θ_j = −½ tr((ααᵀ − K⁻¹) ∂K/∂θ_j) with α = K⁻¹y; the kernel
        returns that trace as a contraction, never ∂K/∂θ itself.
        """
        self.stats.nll_evals += 1
        self.stats.nll_grad_evals += 1
        self.stats.kernel_constructions += 1
        self.kernel.theta = theta
        n = len(self._X)
        K, contract = self.kernel(self._X, eval_gradient=True)
        K = K + self.jitter * np.eye(n)
        try:
            L = cholesky(K)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros_like(theta)
        L_inv = tri_inv(L)
        alpha = L_inv.T @ (L_inv @ self._y)
        nll = (
            0.5 * float(self._y @ alpha)
            + float(np.log(np.diag(L)).sum())
            + 0.5 * n * math.log(2.0 * math.pi)
        )
        if not np.isfinite(nll):
            return 1e25, np.zeros_like(theta)
        K_inv = L_inv.T @ L_inv
        return nll, -0.5 * contract(np.outer(alpha, alpha) - K_inv)

    def _optimize_theta(self) -> None:
        evals_before = self.stats.nll_evals
        with span("gp.hyperopt", n_restarts=N_RESTARTS, n_observations=len(self._X)) as op:
            bounds = self.kernel.bounds
            starts = [self.kernel.theta.copy()]
            for _ in range(N_RESTARTS):
                starts.append(self.rng.uniform(bounds[:, 0], bounds[:, 1]))
            best_theta, best_nll = starts[0], np.inf
            for start in starts:
                theta, nll = minimize_box(self._nll_and_grad, start, bounds)
                if nll < best_nll:
                    best_nll, best_theta = nll, theta
            self.kernel.theta = best_theta
            if op is not None:
                op.set(nll_evals=self.stats.nll_evals - evals_before, nll=best_nll)

    def _recompute(self) -> None:
        t0 = time.perf_counter()
        self.stats.kernel_constructions += 1
        K = self.kernel(self._X) + self.jitter * np.eye(len(self._X))
        self._jitter_escalated = False
        try:
            L = cholesky(K)
        except np.linalg.LinAlgError:
            # Escalate the jitter rather than fail: noisy-system data can
            # contain near-duplicate rows.
            K += 1e-4 * np.eye(len(self._X))
            L = cholesky(K)
            self._jitter_escalated = True
            self.stats.jitter_escalations += 1
            emit_event(
                "surrogate.jitter_escalation", severity="warning",
                message="kernel matrix not positive definite; jitter escalated to 1e-4",
                n_observations=len(self._X),
            )
        self._L_inv = tri_inv(L)
        self._alpha = self._solve(self._y)
        self._chol_theta = self.kernel.theta.copy()
        self.stats.cholesky_full += 1
        self.stats.cholesky_ms += (time.perf_counter() - t0) * 1e3

    @property
    def is_fitted(self) -> bool:
        return self._X is not None

    def log_marginal_likelihood(self) -> float:
        self._require_fit()
        nll = self._nll(self.kernel.theta)
        self._drop_kernel_caches()
        return -nll

    def stats_dict(self) -> dict[str, float]:
        """Counters/timings, including kernel distance-cache hit rates."""
        out = self.stats.to_dict()
        hits = misses = 0
        for k in self.kernel.walk():
            hits += getattr(k, "cache_hits", 0)
            misses += getattr(k, "cache_misses", 0)
        out["distance_cache_hits"] = float(hits)
        out["distance_cache_misses"] = float(misses)
        return out

    # -- prediction ----------------------------------------------------------------
    def predict(self, X: np.ndarray, return_std: bool = False):
        """Posterior mean (and optionally std) at query points.

        The slide's conditioning formula:
        ``μ* = K*ᵀ K⁻¹ y`` and ``Σ* = K** − K*ᵀ K⁻¹ K*``.
        """
        self._require_fit()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Ks = self.kernel(self._X, X)
        mean = Ks.T @ self._alpha * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = self._L_inv @ Ks
        var = self.kernel.diag(X) - np.sum(v * v, axis=0)
        std = np.sqrt(np.maximum(var, 1e-12)) * self._y_std
        return mean, std

    def _require_fit(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("call fit() before querying the GP")
