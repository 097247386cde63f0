"""CMA-ES — covariance matrix adaptation evolution strategy (slide 50).

Hansen's (μ/μ_w, λ) strategy operating in the unit cube of the encoded
configuration space: sample a population from N(m, σ²C), rank by observed
score, move the mean toward the weighted best, adapt the step size via the
evolution path, and adapt C with rank-1 + rank-μ updates.

The ask/tell adaptation buffers one population at a time, so it plugs into
the same sessions as every other optimizer (and parallelises naturally —
see the "Parallel Optimization" slide, which points at CMA-ES): each
suggestion's sample is its memo, so a score told out of order still ranks
the point that earned it.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import Objective, Optimizer, Trial
from ..space import Configuration, ConfigurationSpace

__all__ = ["CMAESOptimizer"]

#: Initial step size in unit-cube units.
SIGMA0 = 0.3


class CMAESOptimizer(Optimizer):
    """(μ/μ_w, λ)-CMA-ES over the unit-encoded space.

    λ is Hansen's 4 + ⌊3 ln n⌋, the search starts at the space default with
    step size :data:`SIGMA0` in unit-cube units.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, objectives, seed=seed)
        n = space.n_dims
        self.n = n
        self.lam = max(4, 4 + int(3 * math.log(n + 1e-9)) if n > 1 else 6)
        self.mu = self.lam // 2
        w = np.log(self.mu + 0.5) - np.log(np.arange(1, self.mu + 1))
        self.weights = w / w.sum()
        self.mueff = 1.0 / float((self.weights**2).sum())

        # Strategy parameters (Hansen's defaults).
        self.cc = (4.0 + self.mueff / n) / (n + 4.0 + 2.0 * self.mueff / n)
        self.cs = (self.mueff + 2.0) / (n + self.mueff + 5.0)
        self.c1 = 2.0 / ((n + 1.3) ** 2 + self.mueff)
        self.cmu = min(
            1.0 - self.c1,
            2.0 * (self.mueff - 2.0 + 1.0 / self.mueff) / ((n + 2.0) ** 2 + self.mueff),
        )
        self.damps = 1.0 + 2.0 * max(0.0, math.sqrt((self.mueff - 1.0) / (n + 1.0)) - 1.0) + self.cs
        self.chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n))

        self.mean = space.to_unit_array(space.default_configuration())
        self.sigma = SIGMA0
        self.C = np.eye(n)
        self.p_sigma = np.zeros(n)
        self.p_c = np.zeros(n)
        self._eigen_stale = True
        self._B = np.eye(n)
        self._D = np.ones(n)
        self.generation = 0

        self._results: list[tuple[np.ndarray, float]] = []

    # -- sampling ----------------------------------------------------------
    def _update_eigen(self) -> None:
        if not self._eigen_stale:
            return
        self.C = (self.C + self.C.T) / 2.0
        vals, vecs = np.linalg.eigh(self.C)
        self._D = np.sqrt(np.maximum(vals, 1e-20))
        self._B = vecs
        self._eigen_stale = False

    def _sample_point(self) -> np.ndarray:
        self._update_eigen()
        z = self.rng.standard_normal(self.n)
        y = self._B @ (self._D * z)
        return self.mean + self.sigma * y

    def _suggest(self) -> tuple[Configuration, np.ndarray]:
        x = np.clip(self._sample_point(), 0.0, 1.0)
        return self.space.from_unit_array(x), x

    # -- updates -------------------------------------------------------------
    def _on_observe(self, trial: Trial, x: np.ndarray | None) -> None:
        if x is None:
            return  # not sampled here (warm start, an ensemble sibling's): not part of any population
        obj = self.objective
        self._results.append((x, obj.score(trial.metric(obj.name))))
        if len(self._results) >= self.lam:
            self._update_distribution()

    def _digest_state(self) -> dict[str, object]:
        return {
            "generation": self.generation,
            "sigma": round(float(self.sigma), 12),
            "mean": [round(float(v), 12) for v in self.mean],
            "awaiting": len(self._untold),
            "buffered": len(self._results),
        }

    def _update_distribution(self) -> None:
        self._results.sort(key=lambda pair: pair[1])
        selected = np.stack([x for x, _ in self._results[: self.mu]])
        self._results.clear()
        old_mean = self.mean.copy()
        self.mean = self.weights @ selected

        self._update_eigen()
        y_w = (self.mean - old_mean) / self.sigma
        inv_sqrt_c = self._B @ np.diag(1.0 / self._D) @ self._B.T
        self.p_sigma = (1.0 - self.cs) * self.p_sigma + math.sqrt(
            self.cs * (2.0 - self.cs) * self.mueff
        ) * (inv_sqrt_c @ y_w)
        ps_norm = float(np.linalg.norm(self.p_sigma))
        hsig = ps_norm / math.sqrt(
            1.0 - (1.0 - self.cs) ** (2 * (self.generation + 1))
        ) < (1.4 + 2.0 / (self.n + 1.0)) * self.chi_n
        self.p_c = (1.0 - self.cc) * self.p_c + (
            math.sqrt(self.cc * (2.0 - self.cc) * self.mueff) * y_w if hsig else 0.0
        )

        ys = (selected - old_mean) / self.sigma
        rank_mu = (self.weights[:, None] * ys).T @ ys
        self.C = (
            (1.0 - self.c1 - self.cmu) * self.C
            + self.c1 * (np.outer(self.p_c, self.p_c) + (0.0 if hsig else self.cc * (2.0 - self.cc)) * self.C)
            + self.cmu * rank_mu
        )
        self.sigma *= math.exp((self.cs / self.damps) * (ps_norm / self.chi_n - 1.0))
        self.sigma = float(np.clip(self.sigma, 1e-8, 1.0))
        self._eigen_stale = True
        self.generation += 1
