"""Similarity, clustering, and matching over workload embeddings (slide 88).

"Problem: how to determine what systems/workloads are similar? … need a
distance / similarity metric between workloads." Provides the kernel
distances, k-means (with k-means++ seeding), kNN matching, and a silhouette
quality score — all from scratch on numpy.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ReproError

__all__ = [
    "kmeans",
    "knn_indices",
    "silhouette_score",
    "clustering_accuracy",
]

#: k-means restarts (single inits routinely merge nearby clusters) and Lloyd iterations at most.
N_INIT = 8
N_ITER = 50


def _pairwise_sq(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    return (
        np.sum(X * X, axis=1)[:, None]
        + np.sum(C * C, axis=1)[None, :]
        - 2.0 * X @ C.T
    )


def kmeans(X: np.ndarray, k: int, rng: np.random.Generator | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm, k-means++ seeding, best of :data:`N_INIT` restarts.

    Returns (labels, centroids) of the restart with the lowest within-
    cluster sum of squares — single inits routinely merge nearby clusters.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if k < 1 or k > len(X):
        raise ReproError(f"k must be in [1, {len(X)}], got {k}")
    rng = rng if rng is not None else np.random.default_rng(0)
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for _ in range(N_INIT):
        labels, C = _kmeans_once(X, k, rng)
        inertia = float(np.sum((X - C[labels]) ** 2))
        if best is None or inertia < best[0]:
            best = (inertia, labels, C)
    return best[1], best[2]


def _kmeans_once(X: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # k-means++ seeding.
    centroids = [X[int(rng.integers(len(X)))]]
    while len(centroids) < k:
        d2 = np.min(_pairwise_sq(X, np.stack(centroids)), axis=1)
        d2 = np.maximum(d2, 0.0)
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(len(X), 1.0 / len(X))
        centroids.append(X[int(rng.choice(len(X), p=probs))])
    C = np.stack(centroids)
    labels = np.zeros(len(X), dtype=int)
    for iteration in range(N_ITER):
        new_labels = np.argmin(_pairwise_sq(X, C), axis=1)
        if np.array_equal(new_labels, labels) and iteration > 0:
            break
        labels = new_labels
        for j in range(k):
            members = X[labels == j]
            if len(members):
                C[j] = members.mean(axis=0)
    return labels, C


def knn_indices(query: np.ndarray, corpus: np.ndarray, k: int = 1) -> np.ndarray:
    """Indices of the k nearest corpus rows to the query vector."""
    corpus = np.atleast_2d(np.asarray(corpus, dtype=float))
    if k < 1 or k > len(corpus):
        raise ReproError(f"k must be in [1, {len(corpus)}], got {k}")
    d = np.linalg.norm(corpus - np.asarray(query, dtype=float)[None, :], axis=1)
    return np.argsort(d)[:k]


def silhouette_score(X: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient (clustering quality in [−1, 1])."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    labels = np.asarray(labels)
    unique = np.unique(labels)
    if len(unique) < 2:
        raise ReproError("silhouette needs >= 2 clusters")
    D = np.sqrt(np.maximum(_pairwise_sq(X, X), 0.0))
    scores = []
    for i in range(len(X)):
        same = labels == labels[i]
        same[i] = False
        a = D[i, same].mean() if same.any() else 0.0
        b = min(
            D[i, labels == other].mean()
            for other in unique
            if other != labels[i]
        )
        denom = max(a, b)
        scores.append(0.0 if denom == 0 else (b - a) / denom)
    return float(np.mean(scores))


def clustering_accuracy(labels: np.ndarray, truth: np.ndarray) -> float:
    """Best-map accuracy: each cluster votes for its majority true class."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    if labels.shape != truth.shape:
        raise ReproError("labels and truth must align")
    correct = 0
    for cluster in np.unique(labels):
        members = truth[labels == cluster]
        values, counts = np.unique(members, return_counts=True)
        correct += int(counts.max())
    return correct / len(labels)
