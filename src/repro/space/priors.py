"""Sampling priors over the unit interval.

The tutorial's "Constraining the Search Space" slide lists *marginal
constraints* — range limits, log scale, and "specifying priors / histograms
for individual tunables" (e.g. on an 8 GB box, ``innodb_buffer_pool_size``
should likely be near 6–7 GB). A :class:`Prior` biases where random sampling
and BO initialisation place their probes, without shrinking the domain.

Priors operate in the parameter's unit interval so they compose with any
transform (log scale, quantization) the parameter applies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..exceptions import SpaceError

__all__ = ["Prior", "UniformPrior", "NormalPrior", "BetaPrior", "HistogramPrior"]


class Prior(ABC):
    """A distribution over ``[0, 1]`` used to bias sampling."""

    @abstractmethod
    def sample_unit(self, rng: np.random.Generator) -> float:
        """Draw one position in the unit interval."""

    @abstractmethod
    def sample_unit_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` unit positions in one vectorized call."""

    @abstractmethod
    def pdf_unit(self, u: np.ndarray) -> np.ndarray:
        """Density at unit positions ``u`` (unnormalised is acceptable)."""


class UniformPrior(Prior):
    """No preference: every unit position equally likely."""

    def sample_unit(self, rng: np.random.Generator) -> float:
        return float(rng.random())

    def sample_unit_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.random(int(n))

    def pdf_unit(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.where((u >= 0.0) & (u <= 1.0), 1.0, 0.0)


class NormalPrior(Prior):
    """Gaussian bump at ``mean`` (unit units), truncated to ``[0, 1]``.

    The natural encoding of expert advice like "around 75 % of RAM".
    """

    def __init__(self, mean: float, std: float) -> None:
        if not 0.0 <= mean <= 1.0:
            raise SpaceError(f"prior mean must be in [0, 1], got {mean}")
        if std <= 0:
            raise SpaceError(f"prior std must be positive, got {std}")
        self.mean = float(mean)
        self.std = float(std)

    def sample_unit(self, rng: np.random.Generator) -> float:
        for _ in range(64):
            x = rng.normal(self.mean, self.std)
            if 0.0 <= x <= 1.0:
                return float(x)
        return float(min(1.0, max(0.0, rng.normal(self.mean, self.std))))

    def sample_unit_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Vectorized truncation: redraw the out-of-range tail in rounds, then
        # clip whatever survives 64 rounds (same escape hatch as the scalar
        # path, applied per position).
        out = rng.normal(self.mean, self.std, size=int(n))
        for _ in range(64):
            bad = (out < 0.0) | (out > 1.0)
            if not bad.any():
                return out
            out[bad] = rng.normal(self.mean, self.std, size=int(bad.sum()))
        return np.clip(out, 0.0, 1.0)

    def pdf_unit(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        z = (u - self.mean) / self.std
        pdf = np.exp(-0.5 * z * z)
        return np.where((u >= 0.0) & (u <= 1.0), pdf, 0.0)


class BetaPrior(Prior):
    """Beta(a, b) prior — flexible skew toward either end of the range."""

    def __init__(self, a: float, b: float) -> None:
        if a <= 0 or b <= 0:
            raise SpaceError(f"beta parameters must be positive, got a={a}, b={b}")
        self.a = float(a)
        self.b = float(b)

    def sample_unit(self, rng: np.random.Generator) -> float:
        return float(rng.beta(self.a, self.b))

    def sample_unit_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.beta(self.a, self.b, size=int(n))

    def pdf_unit(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        eps = 1e-12
        uc = np.clip(u, eps, 1.0 - eps)
        pdf = uc ** (self.a - 1.0) * (1.0 - uc) ** (self.b - 1.0)
        return np.where((u >= 0.0) & (u <= 1.0), pdf, 0.0)


class HistogramPrior(Prior):
    """Piecewise-constant prior from observed good values.

    Knowledge-transfer pipelines build these from the unit-encoded values of
    configurations that performed well on similar workloads.
    """

    def __init__(self, bin_weights: Sequence[float]) -> None:
        w = np.asarray(bin_weights, dtype=float)
        if w.ndim != 1 or len(w) < 1 or np.any(w < 0) or w.sum() <= 0:
            raise SpaceError("bin_weights must be a non-empty 1-D array of non-negative weights")
        self.bin_weights = w / w.sum()

    @classmethod
    def from_samples(cls, unit_values: Sequence[float], n_bins: int = 10) -> "HistogramPrior":
        """Build a prior from unit-interval samples with Laplace (add-one) smoothing."""
        counts, _ = np.histogram(np.asarray(unit_values, dtype=float), bins=n_bins, range=(0.0, 1.0))
        return cls(counts + 1.0)

    @property
    def n_bins(self) -> int:
        return len(self.bin_weights)

    def sample_unit(self, rng: np.random.Generator) -> float:
        i = int(rng.choice(self.n_bins, p=self.bin_weights))
        return float((i + rng.random()) / self.n_bins)

    def sample_unit_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        n = int(n)
        i = rng.choice(self.n_bins, size=n, p=self.bin_weights)
        return (i + rng.random(n)) / self.n_bins

    def pdf_unit(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        idx = np.clip((u * self.n_bins).astype(int), 0, self.n_bins - 1)
        pdf = self.bin_weights[idx] * self.n_bins
        return np.where((u >= 0.0) & (u <= 1.0), pdf, 0.0)
