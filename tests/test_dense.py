"""The GP family's numpy-only algebra and minimizer against scipy, the reference.

``repro.optimizers._dense`` replaced ``scipy.linalg.cholesky`` /
``cho_solve`` / ``solve_triangular`` and L-BFGS-B; scipy stays in the test
environment to say whether the replacements compute the same things, one
factorization at a time and as the fitted GP's posterior and likelihood.
"""

import numpy as np
import pytest
from scipy import linalg, optimize

from repro.optimizers._dense import cholesky, minimize_box, tri_inv
from repro.optimizers.gp import GaussianProcessRegressor, default_kernel
from repro.optimizers.kernels import ConstantKernel, Coregionalized, Matern, WhiteKernel

from .data.make_hyperfit_corpus import compare, load

SIZES = [1, 2, 47, 48, 49, 115, 260]  # around the 48-wide leaf of the recursive inverse


def relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def random_spd(n, rng):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def kernel_matrix(n, rng, kernel):
    """A GP training matrix at the GP's 1e-8 jitter, with near-duplicate rows."""
    X = rng.random((n, 21))
    m = min(5, n // 2)
    X[n - m:] = X[:m] + 1e-6 * rng.standard_normal((m, 21))
    return kernel(X) + 1e-8 * np.eye(n)


MATRICES = {
    "random-spd": random_spd,
    "default-kernel": lambda n, rng: kernel_matrix(n, rng, default_kernel(21)),
    # No white-noise term: the jitter alone keeps it positive definite (condition ≈ 1e8).
    "noise-free-matern": lambda n, rng: kernel_matrix(n, rng, ConstantKernel(1.0) * Matern(np.full(21, 0.3))),
}


@pytest.fixture(params=[(kind, n) for kind in MATRICES for n in SIZES], ids=lambda p: f"{p[0]}-{p[1]}")
def spd(request):
    kind, n = request.param
    return MATRICES[kind](n, np.random.default_rng(n))


class TestCholeskyAlgebra:
    def test_factor_matches_scipy(self, spd):
        L = cholesky(spd)
        assert relative(L, linalg.cholesky(spd, lower=True)) <= 1e-12
        assert np.array_equal(L, np.tril(L))

    def test_inverse_factor_gives_scipys_solves(self, spd):
        """K⁻¹ = L⁻ᵀL⁻¹ against ``cho_solve(L, I)``, α against ``cho_solve(L, y)`` and
        L⁻¹B against ``solve_triangular(L, B)``, all on the same factor."""
        rng = np.random.default_rng(0)
        n = len(spd)
        L = cholesky(spd)
        L_inv = tri_inv(L)
        y, B = rng.standard_normal(n), rng.standard_normal((n, 7))
        assert np.array_equal(L_inv, np.tril(L_inv))
        assert relative(L_inv.T @ L_inv, linalg.cho_solve((L, True), np.eye(n))) <= 1e-10
        assert relative(L_inv.T @ (L_inv @ y), linalg.cho_solve((L, True), y)) <= 1e-10
        assert relative(L_inv @ B, linalg.solve_triangular(L, B, lower=True)) <= 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_raises_value_error(self, bad):
        """``np.linalg.cholesky`` would factor a NaN into NaNs; scipy's check_finite refused it."""
        K = random_spd(5, np.random.default_rng(0))
        K[2, 3] = K[3, 2] = bad
        with pytest.raises(ValueError):
            cholesky(K)

    def test_not_positive_definite_raises_linalg_error(self):
        """What the GP's jitter escalation and failed-evaluation branches catch."""
        K = np.ones((4, 4))  # rank one
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(K)
        with pytest.raises(np.linalg.LinAlgError):
            cholesky(-np.eye(3))


def bo_problem(rng):
    """BO's surrogate on a 21-knob space."""
    return default_kernel(21), rng.random((60, 21)), rng.random((25, 21))


def multitask_problem(rng):
    """MultiTaskOptimizer's surrogate: rows ``[x, task]`` over three tasks."""
    kernel = Coregionalized(Matern(0.3, nu=2.5), 3) + WhiteKernel(1e-3)
    rows = lambda n: np.column_stack([rng.random((n, 5)), rng.integers(0, 3, n)])  # noqa: E731
    return kernel, rows(60), rows(25)


@pytest.mark.parametrize("problem", [bo_problem, multitask_problem])
def test_gp_posterior_and_likelihood_match_a_dense_scipy_reference(problem):
    """Posterior mean, posterior std and log marginal likelihood of a hyper-fitted
    GP against ``cho_factor``/``cho_solve`` on the kernel's own K at the fitted θ."""
    rng = np.random.default_rng(0)
    kernel, X, Xq = problem(rng)
    y = np.sin(X[:, :3].sum(axis=1) * 3.0) + 0.05 * rng.standard_normal(len(X))
    gp = GaussianProcessRegressor(kernel, seed=0).fit(X, y)
    mean, std = gp.predict(Xq, return_std=True)

    y_mean, y_std = y.mean(), y.std()
    factor = linalg.cho_factor(kernel(X) + gp.jitter * np.eye(len(X)), lower=True)
    alpha = linalg.cho_solve(factor, (y - y_mean) / y_std)
    Ks = kernel(X, Xq)
    ref_mean = Ks.T @ alpha * y_std + y_mean
    ref_std = np.sqrt(kernel.diag(Xq) - np.sum(Ks * linalg.cho_solve(factor, Ks), axis=0)) * y_std
    ref_lml = (
        -0.5 * (y - y_mean) / y_std @ alpha
        - np.log(np.diag(factor[0])).sum()
        - 0.5 * len(X) * np.log(2.0 * np.pi)
    )
    assert relative(mean, ref_mean) <= 1e-10
    assert relative(std, ref_std) <= 1e-10
    assert abs(gp.log_marginal_likelihood() - ref_lml) <= 1e-10 * abs(ref_lml)


def rosenbrock(x):
    f = float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return f, g


class TestMinimizeBox:
    def test_quadratic_with_its_minimum_outside_the_box_ends_on_the_face(self):
        target = np.array([2.0, -3.0, 0.25])
        bounds = np.array([[-1.0, 1.0]] * 3)
        x, f = minimize_box(lambda x: (float(np.sum((x - target) ** 2)), 2.0 * (x - target)), np.zeros(3), bounds)
        np.testing.assert_allclose(x, [1.0, -1.0, 0.25], atol=1e-6)
        assert f == pytest.approx(1.0 + 4.0, abs=1e-9)

    @pytest.mark.parametrize("upper", [0.8, 2.0])  # the optimum on a face of the box, and inside it
    def test_matches_scipy_on_a_bounded_rosenbrock(self, upper):
        bounds = np.array([[-2.0, 2.0], [-2.0, upper], [-2.0, 2.0]])
        x0 = np.array([-1.2, 0.5, 1.0])
        x, f = minimize_box(rosenbrock, x0, bounds)
        reference = optimize.minimize(rosenbrock, x0, jac=True, method="L-BFGS-B", bounds=bounds)
        np.testing.assert_allclose(x, reference.x, atol=1e-4)
        assert f <= reference.fun + 1e-9

    def test_start_outside_the_box_is_projected(self):
        x, _ = minimize_box(lambda x: (float(x @ x), 2.0 * x), np.array([5.0, -5.0]), np.array([[1.0, 2.0], [-2.0, -1.0]]))
        np.testing.assert_allclose(x, [1.0, -1.0])

    def test_non_finite_evaluations_are_rejected_steps(self):
        """Beyond x = 0.5 the function fails; the minimum of the rest is x = 0.5 itself,
        and no failed point is ever returned."""
        seen = []

        def fun(x):
            seen.append(x.copy())
            if x[0] > 0.5:
                return np.nan, np.full(1, np.nan)
            return float((x[0] - 3.0) ** 2), 2.0 * (x - 3.0)

        x, f = minimize_box(fun, np.array([0.0]), np.array([[-10.0, 10.0]]))
        assert any(p[0] > 0.5 for p in seen)  # it did step into the failing region
        assert x[0] <= 0.5 and f == (x[0] - 3.0) ** 2
        assert f == pytest.approx(2.5**2, rel=1e-3)

    def test_failed_start_is_returned_as_infinite(self):
        x, f = minimize_box(lambda x: (np.inf, np.zeros_like(x)), np.array([0.3]), np.array([[0.0, 1.0]]))
        assert f == np.inf and x[0] == 0.3


def test_hyperfit_corpus_is_solved_at_least_as_well_as_by_scipy():
    """Ten marginal-likelihood problems recorded from ``bo`` campaigns on the
    simulated DBMS (``tests/data/make_hyperfit_corpus.py``; ``--report`` runs
    all of them), each from the two starts the GP used: the in-tree search's
    best-of-starts NLL is no worse than L-BFGS-B's in median and mean, worse by
    more than 1e-3·|NLL| no more often than better, for no more evaluations."""
    summary = compare(load())
    assert summary["fits"] == 10
    assert summary["median_diff"] <= 0.0
    assert summary["mean_diff"] <= 0.0
    assert summary["share_worse"] <= summary["share_better"]
    assert summary["evals_in_tree"] <= summary["evals_scipy"]
