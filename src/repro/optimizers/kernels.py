"""Covariance kernels for Gaussian-process surrogates.

Implements the kernels the tutorial's "Kernel Functions" slides cover: RBF
(the scikit-learn default), Matérn (the "most popular kernel nowadays", with
ν controlling smoothness and converging to RBF as ν→∞), plus Constant and
White noise kernels, Sum/Product composition ("kernels can be combined"),
and the multi-task kernel of slide 59 (:class:`Coregionalized`).

All hyperparameters live in log-space vectors (``theta``) so the marginal-
likelihood optimizer can do unconstrained-ish box search.

Every kernel supports ``__call__(X, eval_gradient=True)``, returning
``(K, contract)`` where ``contract(W)[j] = Σ_ab W_ab ∂K_ab/∂θ_j`` (log-space).
The marginal-likelihood gradient in
:class:`~repro.optimizers.gp.GaussianProcessRegressor` needs those |θ| numbers,
not the n²·|θ| entries of ∂K/∂θ, so the derivative tensor is never formed.

Stationary kernels additionally cache the raw (unscaled) squared-difference
tensor of the training matrix: within one hyperparameter fit the inputs are
the same array object across every θ evaluation, so a length-scale change
only rescales cached differences instead of recomputing O(n²·d) distances.
The cache lives for one fit: :meth:`Kernel.drop_cache` releases it when the
fit ends, so a fitted model never holds the (n, n, d) tensor.
"""

from __future__ import annotations

import math
import weakref
from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from ..exceptions import OptimizerError

__all__ = ["Kernel", "ConstantKernel", "WhiteKernel", "RBF", "Matern", "Sum", "Product", "Coregionalized"]

#: Raw squared-difference tensors larger than this many elements are
#: recomputed on demand instead of cached. This bounds the one cached tensor
#: (~256 MB), which is also the largest array a hyperparameter fit holds.
_CACHE_MAX_ELEMENTS = 32_000_000

#: ``W ↦ [Σ_ab W_ab ∂K_ab/∂θ_j for j in range(len(theta))]``.
Contraction = Callable[[np.ndarray], np.ndarray]


def _cdist_sq(X1: np.ndarray, X2: np.ndarray, length_scale: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance after per-dimension scaling."""
    A = X1 / length_scale
    B = X2 / length_scale
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    return np.maximum(sq, 0.0)


class Kernel(ABC):
    """A positive-semidefinite covariance function with log-space params."""

    @abstractmethod
    def __call__(
        self, X1: np.ndarray, X2: np.ndarray | None = None, eval_gradient: bool = False
    ) -> np.ndarray | tuple[np.ndarray, Contraction]:
        """Covariance matrix K(X1, X2); X2=None means K(X1, X1).

        With ``eval_gradient=True`` (only valid when ``X2 is None``), returns
        ``(K, contract)``: ``contract(W)`` is the ``len(theta)``-vector whose
        j-th entry is ``Σ_ab W_ab ∂K_ab/∂θ_j`` for the j-th log-space
        hyperparameter, at the θ the kernel had when it was called.
        """

    @abstractmethod
    def diag(self, X: np.ndarray) -> np.ndarray:
        """Diagonal of K(X, X) without forming the matrix."""

    @property
    @abstractmethod
    def theta(self) -> np.ndarray:
        """Log-space hyperparameter vector."""

    @theta.setter
    @abstractmethod
    def theta(self, value: np.ndarray) -> None: ...

    @property
    @abstractmethod
    def bounds(self) -> np.ndarray:
        """(n_params, 2) log-space bounds."""

    def walk(self):
        """Yield this kernel and (for composites) every nested kernel."""
        yield self

    def drop_cache(self) -> None:
        """Release what the kernel cached for one fit (see :class:`_StationaryKernel`)."""

    # -- composition ---------------------------------------------------------
    def __add__(self, other: "Kernel") -> "Sum":
        return Sum(self, other)

    def __mul__(self, other: "Kernel") -> "Product":
        return Product(self, other)


def _require_no_x2(X2: np.ndarray | None) -> None:
    if X2 is not None:
        raise OptimizerError("eval_gradient=True requires X2 is None (training matrix only)")


class ConstantKernel(Kernel):
    """K(x, x') = variance. Scales other kernels via products."""

    _BOUNDS = (1e-4, 1e4)

    def __init__(self, variance: float = 1.0) -> None:
        if variance <= 0:
            raise OptimizerError(f"variance must be positive, got {variance}")
        self.variance = float(variance)

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None, eval_gradient: bool = False):
        n2 = len(X1) if X2 is None else len(X2)
        K = np.full((len(X1), n2), self.variance)
        if not eval_gradient:
            return K
        _require_no_x2(X2)
        # ∂(v·1)/∂log v = v·1 = K, so Σ W⊙K = v·ΣW.
        variance = self.variance
        return K, lambda W: np.array([variance * np.sum(W)])

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(X), self.variance)

    @property
    def theta(self) -> np.ndarray:
        return np.array([math.log(self.variance)])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        self.variance = float(np.exp(value[0]))

    @property
    def bounds(self) -> np.ndarray:
        return np.log(np.array([self._BOUNDS]))


class WhiteKernel(Kernel):
    """Observation-noise kernel: adds ``noise`` on the diagonal only.

    Essential for tuning noisy systems — the GP stops interpolating
    measurement noise and starts averaging it out.
    """

    _BOUNDS = (1e-8, 1e2)

    def __init__(self, noise: float = 1e-3) -> None:
        if noise <= 0:
            raise OptimizerError(f"noise must be positive, got {noise}")
        self.noise = float(noise)

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None, eval_gradient: bool = False):
        K = self.noise * np.eye(len(X1)) if X2 is None else np.zeros((len(X1), len(X2)))
        if not eval_gradient:
            return K
        _require_no_x2(X2)
        # ∂(σ·I)/∂log σ = σ·I = K, so Σ W⊙K = σ·tr W.
        noise = self.noise
        return K, lambda W: np.array([noise * np.trace(W)])

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(X), self.noise)

    @property
    def theta(self) -> np.ndarray:
        return np.array([math.log(self.noise)])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        self.noise = float(np.exp(value[0]))

    @property
    def bounds(self) -> np.ndarray:
        return np.log(np.array([self._BOUNDS]))


class _StationaryKernel(Kernel):
    """Shared machinery for distance-based kernels with ARD length-scales.

    Caches the *unscaled* squared-difference tensor of the last training
    matrix (keyed by array identity, held via weakref): summed over
    dimensions for isotropic kernels, per-dimension for ARD. θ evaluations
    within one fit pass the same array object, so hyperparameter search
    rescales cached differences instead of recomputing them. The cache lives
    for one fit: the regressor calls :meth:`drop_cache` when the fit ends.
    """

    _BOUNDS = (1e-3, 1e3)

    def __init__(self, length_scale: float | np.ndarray = 1.0) -> None:
        ls = np.atleast_1d(np.asarray(length_scale, dtype=float))
        if np.any(ls <= 0):
            raise OptimizerError(f"length_scale must be positive, got {length_scale}")
        self.length_scale = ls
        self._diff_ref: weakref.ref | None = None
        self._diff_cache: np.ndarray | None = None
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def anisotropic(self) -> bool:
        return self.length_scale.shape[0] > 1

    def _raw_sq_diffs(self, X: np.ndarray) -> np.ndarray:
        """Unscaled squared differences of X with itself (cached).

        Shape ``(n, n)`` summed over dims for isotropic kernels, ``(n, n, d)``
        per dimension for ARD. The cache assumes X is not mutated in place.
        """
        if self._diff_ref is not None and self._diff_ref() is X:
            self.cache_hits += 1
            return self._diff_cache
        self.cache_misses += 1
        # Drop the old entry before building the new one, in place: a miss holds one tensor.
        self._diff_ref = self._diff_cache = None
        if self.anisotropic:
            raw = X[:, None, :] - X[None, :, :]
            np.multiply(raw, raw, out=raw)
        else:
            raw = _cdist_sq(X, X, np.ones(1))
        if raw.size <= _CACHE_MAX_ELEMENTS:
            self._diff_ref, self._diff_cache = weakref.ref(X), raw
        return raw

    def drop_cache(self) -> None:
        self._diff_ref = self._diff_cache = None

    def _train_D2(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(raw, D²): the cached tensor and the scaled squared distances from it."""
        raw = self._raw_sq_diffs(X)
        if self.anisotropic:
            return raw, raw @ (1.0 / (self.length_scale**2))
        return raw, raw / (self.length_scale[0] ** 2)

    def _length_scale_contraction(self, raw: np.ndarray, g: np.ndarray) -> Contraction:
        """Contraction for ∂K/∂log ℓ_j = g · (Δ_j²/ℓ_j²), g the kernel's radial factor.

        One mat-vec over the cached tensor read as an (n², d) matrix
        (isotropic: d = 1, the sum over dimensions is already in ``raw``).
        """
        ls2 = self.length_scale**2
        return lambda W: ((W * g).ravel() @ raw.reshape(W.size, -1)) / ls2

    def _D2(self, X1: np.ndarray, X2: np.ndarray | None) -> np.ndarray:
        if X2 is None:
            return self._train_D2(X1)[1]
        return _cdist_sq(X1, X2, self.length_scale)

    @property
    def theta(self) -> np.ndarray:
        return np.log(self.length_scale)

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        self.length_scale = np.exp(np.asarray(value, dtype=float))

    @property
    def bounds(self) -> np.ndarray:
        return np.log(np.tile(np.array([self._BOUNDS]), (len(self.length_scale), 1)))

    def diag(self, X: np.ndarray) -> np.ndarray:
        return np.ones(len(X))


class RBF(_StationaryKernel):
    """Radial basis function: ``exp(-d² / 2ℓ²)``; infinitely smooth.

    ``length_scale`` may be a vector for ARD (one ℓ per input dimension).
    """

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None, eval_gradient: bool = False):
        if not eval_gradient:
            return np.exp(-0.5 * self._D2(X1, X2))
        _require_no_x2(X2)
        raw, D2 = self._train_D2(X1)
        K = np.exp(-0.5 * D2)
        # ∂K/∂log ℓ_d = K · (Δ_d²/ℓ_d²): the radial factor is K itself.
        return K, self._length_scale_contraction(raw, K)


class Matern(_StationaryKernel):
    """Matérn kernel with ν ∈ {0.5, 1.5, 2.5} (the closed-form cases).

    ν = 0.5 is the rough exponential kernel; 2.5 is the BO workhorse.
    """

    _SUPPORTED_NU = (0.5, 1.5, 2.5)

    def __init__(self, length_scale: float | np.ndarray = 1.0, nu: float = 2.5) -> None:
        super().__init__(length_scale)
        if nu not in self._SUPPORTED_NU:
            raise OptimizerError(f"nu must be one of {self._SUPPORTED_NU}, got {nu}")
        self.nu = float(nu)

    def _from_dist(self, d: np.ndarray) -> np.ndarray:
        if self.nu == 0.5:
            return np.exp(-d)
        if self.nu == 1.5:
            s = math.sqrt(3.0) * d
            return (1.0 + s) * np.exp(-s)
        s = math.sqrt(5.0) * d
        return (1.0 + s + s * s / 3.0) * np.exp(-s)

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None, eval_gradient: bool = False):
        if not eval_gradient:
            return self._from_dist(np.sqrt(self._D2(X1, X2)))
        _require_no_x2(X2)
        raw, D2 = self._train_D2(X1)
        d = np.sqrt(D2)
        K = self._from_dist(d)
        # Per-dimension factor g such that ∂K/∂log ℓ_d = g · (Δ_d²/ℓ_d²).
        if self.nu == 0.5:
            # g = e^{-d}/d, with the d→0 limit 0 (Δ_d = 0 there anyway).
            with np.errstate(divide="ignore", invalid="ignore"):
                g = np.where(d > 0.0, np.exp(-d) / np.where(d > 0.0, d, 1.0), 0.0)
        elif self.nu == 1.5:
            g = 3.0 * np.exp(-math.sqrt(3.0) * d)
        else:
            s = math.sqrt(5.0) * d
            g = (5.0 / 3.0) * (1.0 + s) * np.exp(-s)
        return K, self._length_scale_contraction(raw, g)


class _CompositeKernel(Kernel):
    def __init__(self, k1: Kernel, k2: Kernel) -> None:
        self.k1 = k1
        self.k2 = k2

    def walk(self):
        yield self
        yield from self.k1.walk()
        yield from self.k2.walk()

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.k1.theta, self.k2.theta])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        n1 = len(self.k1.theta)
        self.k1.theta = value[:n1]
        self.k2.theta = value[n1:]

    @property
    def bounds(self) -> np.ndarray:
        return np.vstack([self.k1.bounds, self.k2.bounds])


class Sum(_CompositeKernel):
    """K = K1 + K2 (e.g. signal kernel + white noise)."""

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None, eval_gradient: bool = False):
        if not eval_gradient:
            return self.k1(X1, X2) + self.k2(X1, X2)
        _require_no_x2(X2)
        K1, c1 = self.k1(X1, eval_gradient=True)
        K2, c2 = self.k2(X1, eval_gradient=True)
        return K1 + K2, lambda W: np.concatenate([c1(W), c2(W)])

    def diag(self, X: np.ndarray) -> np.ndarray:
        return self.k1.diag(X) + self.k2.diag(X)


class Product(_CompositeKernel):
    """K = K1 ⊙ K2 (e.g. constant variance × RBF)."""

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None, eval_gradient: bool = False):
        if not eval_gradient:
            return self.k1(X1, X2) * self.k2(X1, X2)
        _require_no_x2(X2)
        K1, c1 = self.k1(X1, eval_gradient=True)
        K2, c2 = self.k2(X1, eval_gradient=True)
        # ∂(K1⊙K2) = ∂K1⊙K2 + K1⊙∂K2: each factor's weight carries the other.
        return K1 * K2, lambda W: np.concatenate([c1(W * K2), c2(W * K1)])

    def diag(self, X: np.ndarray) -> np.ndarray:
        return self.k1.diag(X) * self.k2.diag(X)


class Coregionalized(Kernel):
    """Intrinsic coregionalisation (slide 59): K((x,i),(x',j)) = B[i,j] · K_x(x,x').

    Rows are ``[x, task]`` with the integer task id in the last column, and
    the task covariance is ``B = w wᵀ + diag(v)`` — rank one plus a diagonal,
    enough for positive and partial correlations between a handful of tasks.
    θ is the input kernel's θ, then log w, then log v.
    """

    def __init__(self, input_kernel: Kernel, n_tasks: int) -> None:
        if n_tasks < 2:
            raise OptimizerError(f"need >= 2 tasks, got {n_tasks}")
        self.input_kernel = input_kernel
        self.n_tasks = int(n_tasks)
        self.w = np.ones(self.n_tasks)
        self.v = np.full(self.n_tasks, 0.1)
        # (X, inputs, task ids) of the last training matrix: the same X gets
        # the same input slice, so the input kernel's distance cache hits.
        self._train: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def task_covariance(self) -> np.ndarray:
        return np.outer(self.w, self.w) + np.diag(self.v)

    def _split(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tasks = X[:, -1].astype(int)
        if tasks.size and (tasks.min() < 0 or tasks.max() >= self.n_tasks):
            raise OptimizerError(f"task ids must be in [0, {self.n_tasks})")
        return X[:, :-1], tasks

    def _train_split(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._train is None or self._train[0] is not X:
            self._train = (X, *self._split(X))
        return self._train[1], self._train[2]

    def __call__(self, X1: np.ndarray, X2: np.ndarray | None = None, eval_gradient: bool = False):
        B = self.task_covariance()
        if eval_gradient:
            _require_no_x2(X2)
        elif X2 is not None:
            (x1, t1), (x2, t2) = self._split(X1), self._split(X2)
            return B[np.ix_(t1, t2)] * self.input_kernel(x1, x2)
        x, t = self._train_split(X1)
        B_tt = B[np.ix_(t, t)]
        if not eval_gradient:
            return B_tt * self.input_kernel(x)
        Kx, contract_x = self.input_kernel(x, eval_gradient=True)
        E = np.eye(self.n_tasks)[t]  # one-hot task indicator
        w, v = self.w, self.v

        def contract(W: np.ndarray) -> np.ndarray:
            # B enters through w and v only: with G = Eᵀ(W ⊙ Kx)E, W ⊙ Kx summed
            # over each pair of tasks, ∂/∂log wᵢ = 2wᵢ(Gw)ᵢ and ∂/∂log vᵢ = vᵢGᵢᵢ.
            G = E.T @ (W * Kx) @ E
            return np.concatenate([contract_x(W * B_tt), 2.0 * w * (G @ w), v * np.diag(G)])

        return B_tt * Kx, contract

    def diag(self, X: np.ndarray) -> np.ndarray:
        x, t = self._split(X)
        return np.diag(self.task_covariance())[t] * self.input_kernel.diag(x)

    def walk(self):
        yield self
        yield from self.input_kernel.walk()

    def drop_cache(self) -> None:
        self._train = None

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.input_kernel.theta, np.log(self.w), np.log(self.v)])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        k = self.n_tasks
        self.input_kernel.theta = value[:-2 * k]
        self.w = np.exp(value[-2 * k:-k])
        self.v = np.exp(value[-k:])

    @property
    def bounds(self) -> np.ndarray:
        k = self.n_tasks
        return np.vstack([self.input_kernel.bounds, np.tile([-3.0, 3.0], (k, 1)), np.tile([-6.0, 2.0], (k, 1))])
