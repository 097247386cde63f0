"""Pareto-front utilities for multi-objective tuning (slide 58).

"Pareto frontier: a set of solutions x* not dominated by any other —
no objective can be improved without degrading some other objective."
All functions assume canonical *minimize* scores in every column.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import OptimizerError

__all__ = ["dominates", "pareto_front_mask", "pareto_front", "hypervolume_2d"]


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff point ``a`` Pareto-dominates ``b`` (minimization)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def pareto_front_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows in an (n, k) score matrix."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        dominated_by_i = np.all(points >= points[i], axis=1) & np.any(points > points[i], axis=1)
        mask &= ~dominated_by_i
        mask[i] = True
    return mask


def pareto_front(points: np.ndarray) -> np.ndarray:
    """The non-dominated rows, sorted by the first objective."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    front = points[pareto_front_mask(points)]
    return front[np.argsort(front[:, 0])]


def hypervolume_2d(points: np.ndarray, reference: np.ndarray) -> float:
    """Exact dominated hypervolume for two minimize-objectives.

    ``reference`` is the nadir point; rows beyond it contribute nothing.
    The standard quality indicator for comparing multi-objective tuners.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    reference = np.asarray(reference, dtype=float)
    if points.shape[1] != 2 or reference.shape != (2,):
        raise OptimizerError("hypervolume_2d needs (n, 2) points and a 2-vector reference")
    front = pareto_front(points)
    front = front[np.all(front <= reference, axis=1)]
    if len(front) == 0:
        return 0.0
    volume = 0.0
    prev_y = reference[1]
    for x, y in front:  # ascending x ⇒ descending y on a front
        volume += (reference[0] - x) * (prev_y - y)
        prev_y = y
    return float(volume)
