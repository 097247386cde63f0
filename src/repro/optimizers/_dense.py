"""Dense linear algebra and a box-constrained minimizer for the GP family, on numpy alone.

The GP needs four things from outside numpy's core: a Cholesky factor, the
inverse of that factor, K⁻¹, and a bounded quasi-Newton search over its
log-space hyperparameters. This module provides them:

* :func:`cholesky` is ``np.linalg.cholesky`` with a finiteness check in front:
  numpy factors a NaN matrix into NaNs without complaint, and a NaN posterior
  must not pass for a fitted one. A matrix that is not positive definite raises
  :class:`numpy.linalg.LinAlgError`, which the callers' jitter escalation and
  failed-evaluation branches catch.
* :func:`tri_inv` inverts a lower-triangular factor recursively,
  ``[[A, 0], [C, D]]⁻¹ = [[A⁻¹, 0], [−D⁻¹CA⁻¹, D⁻¹]]``, with small blocks handed
  to ``np.linalg.inv``. The callers keep L⁻¹ instead of L: every triangular
  solve becomes a matrix product, and K⁻¹ = L⁻ᵀL⁻¹ (LAPACK's ``potri``) costs
  n³ flops against the 2n³ of two triangular solves with n right-hand sides.
* :func:`minimize_box` is a projected L-BFGS for ``f(x)`` with its gradient
  under box bounds (memory, tolerances and caps are the module constants
  below; the stopping rules are L-BFGS-B's defaults).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["cholesky", "tri_inv", "minimize_box"]

#: Blocks at most this wide are inverted by ``np.linalg.inv``; wider ones are split.
LEAF = 48
#: L-BFGS memory: curvature pairs kept.
MEMORY = 10
#: Iterations (accepted steps) per search.
MAX_ITER = 50
#: Function evaluations per line search.
MAX_LINE_SEARCH = 20
#: Stop once the relative decrease of f in one step is at most this (L-BFGS-B's ``factr=1e7``).
FTOL = 1e7 * np.finfo(float).eps
#: Stop once the largest projected-gradient component is at most this (L-BFGS-B's ``pgtol``).
PGTOL = 1e-5
#: Sufficient-decrease constant of the Armijo condition.
ARMIJO = 1e-4
#: Largest distance from a bound at which a variable pushed towards it is held on it.
ACTIVE_EPS = 1e-3


def cholesky(K: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite ``K``.

    Raises ``ValueError`` if ``K`` holds a NaN or an infinity and
    :class:`numpy.linalg.LinAlgError` if it is not positive definite.
    """
    if not np.isfinite(K).all():
        raise ValueError("matrix must not contain infs or NaNs")
    return np.linalg.cholesky(K)


def tri_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular, non-singular ``L`` (lower-triangular too)."""
    out = np.zeros_like(L)
    _tri_inv_into(L, out)
    return out


def _tri_inv_into(L: np.ndarray, out: np.ndarray) -> None:
    n = len(L)
    if n <= LEAF:
        # inv pivots, so the upper triangle may carry rounding residue: drop it.
        out[...] = np.tril(np.linalg.inv(L))
        return
    h = n // 2
    _tri_inv_into(L[:h, :h], out[:h, :h])
    _tri_inv_into(L[h:, h:], out[h:, h:])
    out[h:, :h] = -out[h:, h:] @ (L[h:, :h] @ out[:h, :h])


def minimize_box(
    fun_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    bounds: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Minimise ``f`` over the box ``bounds[:, 0] ≤ x ≤ bounds[:, 1]`` from ``x0``.

    ``fun_and_grad(x)`` returns ``(f(x), ∇f(x))``. Returns the best point
    accepted and its value; the start (projected into the box) is the first
    accepted point, so the result is never worse than it. A step whose
    evaluation is not finite is rejected and the line search shrinks it.

    Each iteration puts the variables that sit within ε of a bound their
    gradient pushes towards on that bound, restricts the L-BFGS two-loop
    direction to the rest, then backtracks along the projected path
    ``P(x + t·d)`` until the Armijo condition holds, shrinking ``t`` by
    safeguarded quadratic interpolation.
    """
    lo, hi = bounds[:, 0], bounds[:, 1]
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g = _evaluate(fun_and_grad, x)
    if f is None:
        return x, np.inf
    pairs: list[tuple[np.ndarray, np.ndarray]] = []  # (s, y), oldest first
    for _ in range(MAX_ITER):
        projected = np.clip(x - g, lo, hi) - x
        if np.max(np.abs(projected)) <= PGTOL:
            break
        # Without this, a variable converging on a bound approaches it by ever shorter steps.
        eps = min(ACTIVE_EPS, float(np.linalg.norm(projected)))
        to_lo, to_hi = (x <= lo + eps) & (g > 0), (x >= hi - eps) & (g < 0)
        free = ~(to_lo | to_hi)
        d = _direction(g, free, pairs)
        if float(g @ d) >= 0:  # the memory lost its grip on the free subspace: start over
            pairs.clear()
            d = np.where(free, -g, 0.0)
        d = np.where(to_lo, lo - x, np.where(to_hi, hi - x, d))
        # Without curvature pairs the scale of d is the gradient's; take a unit step in x.
        t = 1.0 if pairs else min(1.0, 1.0 / max(np.linalg.norm(d[free]), 1e-300))
        step = _line_search(fun_and_grad, x, f, g, d, free, t, lo, hi)
        if step is None:
            break
        x_new, f_new, g_new = step
        s, y = x_new - x, g_new - g
        if float(s @ y) > np.finfo(float).eps * float(y @ y):
            pairs.append((s, y))
            if len(pairs) > MEMORY:
                pairs.pop(0)
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if decrease <= FTOL:
            break
    return x, f


def _evaluate(fun_and_grad, x):
    f, g = fun_and_grad(x)
    f = float(f)
    g = np.asarray(g, dtype=float)
    if not (np.isfinite(f) and np.isfinite(g).all()):
        return None, None
    return f, g


def _direction(g: np.ndarray, free: np.ndarray, pairs) -> np.ndarray:
    """−H·g on the free variables by the two-loop recursion, 0 on the held ones."""
    q = np.where(free, g, 0.0)
    used = []
    for s, y in reversed(pairs):
        sf, yf = s * free, y * free
        sy = float(sf @ yf)
        if sy <= 0.0:  # no positive curvature left on the free subspace
            continue
        a = float(sf @ q) / sy
        q -= a * yf
        used.append((sf, yf, sy, a))
    if used:
        sf, yf, sy, _a = used[0]  # the newest usable pair sets the initial scale
        q *= sy / float(yf @ yf)
    for sf, yf, sy, a in reversed(used):
        q += (a - float(yf @ q) / sy) * sf
    return -q


def _line_search(fun_and_grad, x, f, g, d, free, t, lo, hi):
    """Backtrack along ``P(x + t·d)`` until sufficient decrease; None if it never comes.

    Held variables (``~free``) take their whole step ``d`` whatever ``t`` is.
    """
    for _ in range(MAX_LINE_SEARCH):
        x_new = np.clip(x + np.where(free, t, 1.0) * d, lo, hi)
        if np.array_equal(x_new, x):
            return None
        f_new, g_new = _evaluate(fun_and_grad, x_new)
        if f_new is None:
            t *= 0.1
            continue
        linear = float(g @ (x_new - x))  # first-order change of f from x to x_new
        if f_new <= f + ARMIJO * linear:
            return x_new, f_new, g_new
        # Minimiser of the quadratic through f, that slope and f_new, kept in [0.1t, 0.5t].
        curvature = f_new - f - linear
        t_q = -0.5 * linear / curvature * t if curvature > 0 else 0.5 * t
        t = min(max(t_q, 0.1 * t), 0.5 * t)
    return None
