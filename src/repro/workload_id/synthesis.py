"""Synthetic benchmark generation (slide 92, Stitcher-style).

"Generate the optimal mixture of queries to mimic the workload in
production; offline-optimize the system for that new synthetic benchmark;
use the optimized config on the system in prod."

Given a library of base workloads and only the *observable* signature of a
production workload, :func:`synthesize_benchmark` finds the non-negative
mixture of base workloads whose blended signature best matches, via NNLS.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ReproError
from ..workloads import Workload

__all__ = ["mixture_weights", "blend_mixture", "synthesize_benchmark"]

#: Mixture weights below this are noise: zeroed before renormalising.
MIN_WEIGHT = 0.02


def mixture_weights(target_signature: np.ndarray, library_signatures: np.ndarray) -> np.ndarray:
    """Convex weights w ≥ 0, Σw = 1 minimising ‖Sᵀw − target‖².

    Solved as NNLS on standardised signatures with a sum-to-one penalty
    row, then thresholded (tiny weights are noise) and renormalised.
    """
    S = np.atleast_2d(np.asarray(library_signatures, dtype=float))
    t = np.asarray(target_signature, dtype=float)
    if S.shape[1] != len(t):
        raise ReproError(f"signature widths differ: {S.shape[1]} vs {len(t)}")
    # Standardise feature columns so no single feature dominates the fit.
    mean = S.mean(axis=0)
    std = S.std(axis=0)
    std[std <= 0] = 1.0
    Sz = (S - mean) / std
    tz = (t - mean) / std
    # Augment with a strong sum-to-one row.
    rho = 10.0
    A = np.vstack([Sz.T, rho * np.ones(len(S))])
    b = np.concatenate([tz, [rho]])
    w = _nnls(A, b)
    if w.sum() <= 0:
        raise ReproError("NNLS produced an all-zero mixture")
    w = w / w.sum()
    w[w < MIN_WEIGHT] = 0.0
    if w.sum() <= 0:
        raise ReproError(f"all mixture weights fell below {MIN_WEIGHT}")
    return w / w.sum()


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ‖Ax − b‖ subject to x ≥ 0, by Lawson and Hanson's active-set method.

    Variables enter the passive (unconstrained) set one at a time, the one
    whose gradient promises the steepest decrease first; whenever the
    least-squares solution on the passive set turns a variable non-positive,
    the step is cut back to where the first one reaches zero and it leaves.
    """
    n = A.shape[1]
    tol = 10 * np.finfo(float).eps * np.abs(A).sum(axis=0).max() * max(A.shape)
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        w = A.T @ (b - A @ x)
        if passive.all() or w[~passive].max() <= tol:
            break
        passive[np.argmax(np.where(passive, -np.inf, w))] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
            if (z[passive] > 0).all():
                break
            shrinking = np.flatnonzero(passive & (z <= 0))
            ratios = x[shrinking] / (x[shrinking] - z[shrinking])
            first = np.argmin(ratios)
            x += ratios[first] * (z - x)
            passive &= x > tol
            passive[shrinking[first]] = False  # leaves even if rounding kept it a hair above 0
            x[~passive] = 0.0
        x = z
    return x


def blend_mixture(library: list[Workload], weights: np.ndarray, name: str = "synthetic") -> Workload:
    """Fold a weighted list of workloads into one blended workload."""
    if len(library) != len(weights):
        raise ReproError("library and weights must align")
    active = [(w, float(wt)) for w, wt in zip(library, weights) if wt > 0]
    if not active:
        raise ReproError("no active components in the mixture")
    blended, acc = active[0][0], active[0][1]
    for workload, weight in active[1:]:
        alpha = weight / (acc + weight)
        blended = blended.blend(workload, alpha)
        acc += weight
    import dataclasses

    return dataclasses.replace(blended, name=name)


def synthesize_benchmark(
    target: Workload,
    library: list[Workload],
    name: str | None = None,
) -> tuple[Workload, np.ndarray]:
    """Build the library mixture that best mimics ``target``.

    Returns the synthetic workload and the mixture weights. The target's
    signature is all we use — standing in for "can't replay their workload
    (side effects), can't look at it (privacy)" from slide 73: signatures
    are aggregate, non-sensitive statistics.
    """
    if not library:
        raise ReproError("need a non-empty workload library")
    S = np.stack([w.signature() for w in library])
    weights = mixture_weights(target.signature(), S)
    synthetic = blend_mixture(library, weights, name=name or f"synthetic<{target.name}>")
    return synthetic, weights
