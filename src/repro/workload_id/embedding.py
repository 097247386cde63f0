"""Workload embeddings (slide 89).

"Map each workload to a multi-dimensional vector … compact representation
of heterogeneous features, comparison of not-exactly-alike workloads,
clustering, input to other ML models."

The embedder standardises heterogeneous feature blocks (telemetry,
query-log) and projects with PCA (from-scratch SVD) or a random projection.
Multi-modal fusion — slide 93's "combine time series and graph data" —
is concatenation before projection.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import NotFittedError, ReproError
from ..sysim.telemetry import TelemetryTrace
from ..workload_id.features import (
    query_log_features,
    synthetic_query_log,
    telemetry_features,
)
from ..workloads import Workload

__all__ = ["PCAEmbedding", "RandomProjectionEmbedding", "WorkloadEmbedder"]


class PCAEmbedding:
    """Principal-component projection via SVD, with standardisation."""

    def __init__(self, n_components: int = 4) -> None:
        if n_components < 1:
            raise ReproError(f"n_components must be >= 1, got {n_components}")
        self.n_components = int(n_components)
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self._components: np.ndarray | None = None
        self.explained_variance_ratio: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "PCAEmbedding":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if len(X) < 2:
            raise ReproError("PCA needs at least 2 samples")
        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        # Near-constant features must not explode at transform time, so the
        # threshold is absolute, not just "non-zero".
        self._std = np.where(std > 1e-9, std, 1.0)
        Z = (X - self._mean) / self._std
        _, s, vt = np.linalg.svd(Z, full_matrices=False)
        k = min(self.n_components, vt.shape[0])
        self._components = vt[:k]
        var = s**2
        self.explained_variance_ratio = var[:k] / var.sum() if var.sum() > 0 else np.zeros(k)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self._components is None:
            raise NotFittedError("fit the embedding first")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return ((X - self._mean) / self._std) @ self._components.T


class RandomProjectionEmbedding:
    """Gaussian random projection (Johnson–Lindenstrauss style)."""

    def __init__(self, n_components: int = 4, seed: int | None = None) -> None:
        if n_components < 1:
            raise ReproError(f"n_components must be >= 1, got {n_components}")
        self.n_components = int(n_components)
        self.rng = np.random.default_rng(seed)
        self._matrix: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "RandomProjectionEmbedding":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self._mean = X.mean(axis=0)
        std = X.std(axis=0)
        self._std = np.where(std > 1e-9, std, 1.0)
        self._matrix = self.rng.standard_normal((X.shape[1], self.n_components))
        self._matrix /= np.sqrt(self.n_components)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self._matrix is None:
            raise NotFittedError("fit the embedding first")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return ((X - self._mean) / self._std) @ self._matrix


class WorkloadEmbedder:
    """End-to-end embedder: workload → raw features → embedding vector.

    Parameters
    ----------
    use_telemetry, use_query_log:
        Which modalities to extract (multi-modal when both).
    n_components:
        Embedding dimensionality.
    n_steps:
        Telemetry length per workload observation.
    """

    def __init__(
        self,
        use_telemetry: bool = True,
        use_query_log: bool = True,
        n_components: int = 4,
        n_steps: int = 128,
        seed: int | None = None,
    ) -> None:
        if not (use_telemetry or use_query_log):
            raise ReproError("enable at least one modality")
        self.use_telemetry = use_telemetry
        self.use_query_log = use_query_log
        self.n_steps = int(n_steps)
        self.rng = np.random.default_rng(seed)
        self.projection = PCAEmbedding(n_components)
        self._fitted = False

    def raw_features(self, workload: Workload) -> np.ndarray:
        """One observation of the workload's features (stochastic)."""
        parts = []
        if self.use_telemetry:
            trace = self._observe_telemetry(workload)
            parts.append(telemetry_features(trace))
        if self.use_query_log:
            log = synthetic_query_log(workload, rng=self.rng)
            parts.append(query_log_features(log))
        return np.concatenate(parts)

    def _observe_telemetry(self, workload: Workload) -> TelemetryTrace:
        from ..sysim.telemetry import generate_telemetry

        return generate_telemetry(workload, n_steps=self.n_steps, rng=self.rng)

    def fit(self, workloads: list[Workload]) -> "WorkloadEmbedder":
        """Fit the projection on three (stochastic) observations of each workload."""
        X = np.stack([self.raw_features(w) for w in workloads for _ in range(3)])
        self.projection.fit(X)
        self._fitted = True
        return self

    def embed(self, workload: Workload) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError("fit the embedder on a workload corpus first")
        return self.projection.transform(self.raw_features(workload)[None, :])[0]
