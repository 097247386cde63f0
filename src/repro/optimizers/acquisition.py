"""Acquisition functions — "pick the most interesting point to evaluate".

Implements the tutorial's slide 47 list for *minimization* problems (the
library's canonical direction): Probability of Improvement, Expected
Improvement ("takes the magnitude of improvement into account!"), and the
confidence bound ("in our case, Lower Confidence Bound: LCB = m(x) − βσ(x)",
with β controlling explore/exploit), plus the cost-aware EI used by
multi-fidelity optimization.

All functions return values to **maximise** over candidates.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import OptimizerError
from ..space.space import ConfigurationPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..space import Configuration, ConfigurationSpace

__all__ = [
    "AcquisitionFunction",
    "ProbabilityOfImprovement",
    "ExpectedImprovement",
    "LowerConfidenceBound",
    "CostAwareEI",
    "ThompsonSampling",
    "generate_candidates",
    "trust_region",
]


#: Share of the candidate pool sampled from the whole space; the rest are
#: single-knob perturbations of the incumbent.
GLOBAL_FRACTION = 0.7
#: Step sizes (unit-cube fractions, tight to loose) of those perturbations.
LOCAL_SCALES = np.array([0.02, 0.05, 0.15])


def generate_candidates(
    space: "ConfigurationSpace",
    rng: np.random.Generator,
    n: int,
    incumbent: "Configuration | None" = None,
) -> "ConfigurationPool":
    """Candidate pool for acquisition maximisation, drawn in two batched calls.

    The standard mix used by the surrogate optimizers:
    :data:`GLOBAL_FRACTION` of the pool is sampled from the whole space, the
    rest are single-knob perturbations of the incumbent at a random step
    size from :data:`LOCAL_SCALES`. Everything is vectorized —
    :meth:`ConfigurationSpace.sample_many` draws all parameter columns at
    once and :meth:`ConfigurationSpace.neighbor_many` groups rows per moved
    knob — and the pool stays in columns: only the configuration an
    optimizer picks is ever built.
    """
    n = int(n)
    n_global = int(n * GLOBAL_FRACTION)
    if incumbent is not None and n - n_global < 1:
        n_global = n - 1  # keep >= 1 local neighbor when an incumbent exists
    cands = space.sample_many(n_global, rng)
    if incumbent is not None and n > n_global:
        scales = rng.choice(LOCAL_SCALES, size=n - n_global)
        cands = cands + space.neighbor_many(incumbent, n - n_global, rng, scales=scales)
    return cands


#: Largest step (unit-cube fraction) of a trust-region neighbour.
TRUST_RADIUS = 0.15


def trust_region(
    space: "ConfigurationSpace",
    rng: np.random.Generator,
    centre: "Configuration",
    n: int,
) -> "ConfigurationPool":
    """Safe-exploration pool: ``centre`` plus ``n − 1`` single-knob neighbours
    of it, each at a step size drawn from ``uniform(0.01, TRUST_RADIUS)``.

    The generator of the online tuners (safe BO, contextual BO), which must
    not stray from a configuration known to run well.
    """
    scales = rng.uniform(0.01, TRUST_RADIUS, size=int(n) - 1)
    return ConfigurationPool.of(space, [centre]) + space.neighbor_many(centre, int(n) - 1, rng, scales=scales)


# The standard normal's CDF and density, written out: ``scipy.special.ndtr``
# agrees with this CDF to an ulp, but importing it costs a process 22 MB and
# 0.2 s, and the package needs nothing else of scipy.
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * np.asarray(_erfc(z * -math.sqrt(0.5)), dtype=float)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)


class AcquisitionFunction(ABC):
    """Scores candidate points given posterior mean/std and the incumbent."""

    @abstractmethod
    def __call__(self, mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        """Higher = more worth evaluating. ``best`` is the incumbent score."""

    @staticmethod
    def _validate(mean: np.ndarray, std: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = np.asarray(mean, dtype=float)
        std = np.asarray(std, dtype=float)
        if mean.shape != std.shape:
            raise OptimizerError(f"mean/std shapes differ: {mean.shape} vs {std.shape}")
        return mean, np.maximum(std, 1e-12)


class ProbabilityOfImprovement(AcquisitionFunction):
    """PI(x) = P(f(x) < best − ξ). Cheap but greedy — ignores magnitude."""

    def __init__(self, xi: float = 0.01) -> None:
        if xi < 0:
            raise OptimizerError(f"xi must be >= 0, got {xi}")
        self.xi = float(xi)

    def __call__(self, mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        mean, std = self._validate(mean, std)
        z = (best - self.xi - mean) / std
        return _norm_cdf(z)


class ExpectedImprovement(AcquisitionFunction):
    """EI(x) = E[max(best − f(x), 0)] — the default BO acquisition."""

    def __init__(self, xi: float = 0.01) -> None:
        if xi < 0:
            raise OptimizerError(f"xi must be >= 0, got {xi}")
        self.xi = float(xi)

    def __call__(self, mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        mean, std = self._validate(mean, std)
        delta = best - self.xi - mean
        z = delta / std
        return delta * _norm_cdf(z) + std * _norm_pdf(z)


class LowerConfidenceBound(AcquisitionFunction):
    """−LCB(x) = −(m(x) − βσ(x)); β ≥ 0 trades exploration for exploitation.

    β = 0 is pure exploitation (trust the mean); large β chases uncertainty.
    """

    def __init__(self, beta: float = 2.0) -> None:
        if beta < 0:
            raise OptimizerError(f"beta must be >= 0, got {beta}")
        self.beta = float(beta)

    def __call__(self, mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        mean, std = self._validate(mean, std)
        return -(mean - self.beta * std)


class CostAwareEI(AcquisitionFunction):
    """EI per unit cost — slide 65's "cost-adjusted Expected Improvement".

    ``costs`` must be set (or passed per-call) to the evaluation cost of each
    candidate; cheap-but-informative points win.
    """

    def __init__(self, xi: float = 0.01, costs: np.ndarray | None = None) -> None:
        self._ei = ExpectedImprovement(xi)
        self.costs = None if costs is None else np.asarray(costs, dtype=float)

    def __call__(
        self,
        mean: np.ndarray,
        std: np.ndarray,
        best: float,
        costs: np.ndarray | None = None,
    ) -> np.ndarray:
        ei = self._ei(mean, std, best)
        costs = self.costs if costs is None else np.asarray(costs, dtype=float)
        if costs is None:
            raise OptimizerError("CostAwareEI needs candidate costs")
        if costs.shape != ei.shape:
            raise OptimizerError(f"costs shape {costs.shape} != candidates {ei.shape}")
        if np.any(costs <= 0):
            raise OptimizerError("candidate costs must be positive")
        return ei / costs


class ThompsonSampling(AcquisitionFunction):
    """Posterior-sample acquisition: score = −(one draw from N(m, σ²)).

    Matches the multi-armed-bandit view on slide 51 — selection by sampling
    the model rather than a closed-form utility.
    """

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        # Deterministic fallback: an unseeded generator would make the
        # acquisition stream (and thus the whole campaign) non-replayable.
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def __call__(self, mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
        mean, std = self._validate(mean, std)
        return -self.rng.normal(mean, std)
