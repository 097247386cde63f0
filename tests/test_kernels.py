"""Unit tests for GP kernels."""

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import OptimizerError
from repro.optimizers.kernels import (
    RBF,
    ConstantKernel,
    Matern,
    Product,
    Sum,
    WhiteKernel,
)


def grid(n=8, d=2, seed=0):
    return np.random.default_rng(seed).random((n, d))


class TestRBF:
    def test_diagonal_is_one(self):
        X = grid()
        K = RBF(0.5)(X)
        assert np.allclose(np.diag(K), 1.0)

    def test_symmetry_and_psd(self):
        X = grid(10)
        K = RBF(0.5)(X)
        assert np.allclose(K, K.T)
        assert np.linalg.eigvalsh(K).min() > -1e-10

    def test_decays_with_distance(self):
        k = RBF(0.3)
        X = np.array([[0.0], [0.1], [0.9]])
        K = k(X)
        assert K[0, 1] > K[0, 2]

    def test_length_scale_controls_smoothness(self):
        X = np.array([[0.0], [0.5]])
        wide = RBF(2.0)(X)[0, 1]
        narrow = RBF(0.05)(X)[0, 1]
        assert wide > 0.9 and narrow < 0.01

    def test_ard_length_scales(self):
        k = RBF(np.array([0.1, 10.0]))
        a = np.array([[0.0, 0.0]])
        move_x = np.array([[0.5, 0.0]])
        move_y = np.array([[0.0, 0.5]])
        # Moving along the short-length-scale dim decorrelates much faster.
        assert k(a, move_x)[0, 0] < k(a, move_y)[0, 0]

    def test_positive_length_scale_required(self):
        with pytest.raises(OptimizerError):
            RBF(-1.0)


class TestMatern:
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_valid_nu(self, nu):
        X = grid()
        K = Matern(0.5, nu=nu)(X)
        assert np.allclose(np.diag(K), 1.0)
        assert np.linalg.eigvalsh(K).min() > -1e-10

    def test_invalid_nu(self):
        with pytest.raises(OptimizerError):
            Matern(0.5, nu=3.0)

    def test_matern_approaches_rbf_at_high_nu(self):
        """ν=2.5 is closer to RBF than ν=0.5 — the slide's limit statement."""
        X = grid(12)
        rbf = RBF(0.5)(X)
        d25 = np.abs(Matern(0.5, nu=2.5)(X) - rbf).max()
        d05 = np.abs(Matern(0.5, nu=0.5)(X) - rbf).max()
        assert d25 < d05

    def test_rougher_kernel_decorrelates_faster(self):
        X = np.array([[0.0], [0.2]])
        assert Matern(0.5, nu=0.5)(X)[0, 1] < Matern(0.5, nu=2.5)(X)[0, 1]


class TestWhiteAndConstant:
    def test_white_only_on_diagonal(self):
        X = grid(5)
        k = WhiteKernel(0.1)
        K = k(X)
        assert np.allclose(K, 0.1 * np.eye(5))
        assert np.allclose(k(X, grid(3, seed=1)), 0.0)

    def test_constant(self):
        X = grid(4)
        K = ConstantKernel(2.5)(X)
        assert np.all(K == 2.5)

    def test_validation(self):
        with pytest.raises(OptimizerError):
            WhiteKernel(0.0)
        with pytest.raises(OptimizerError):
            ConstantKernel(-1.0)


class TestComposition:
    def test_sum(self):
        X = grid(6)
        combo = Sum(RBF(0.5), WhiteKernel(0.1))
        assert np.allclose(combo(X), RBF(0.5)(X) + WhiteKernel(0.1)(X))

    def test_product(self):
        X = grid(6)
        combo = Product(ConstantKernel(2.0), RBF(0.5))
        assert np.allclose(combo(X), 2.0 * RBF(0.5)(X))

    def test_operator_sugar(self):
        X = grid(5)
        k = ConstantKernel(3.0) * RBF(0.4) + WhiteKernel(0.01)
        assert k(X)[0, 0] == pytest.approx(3.01)

    def test_theta_roundtrip(self):
        k = ConstantKernel(2.0) * Matern(0.3, nu=2.5) + WhiteKernel(0.05)
        theta = k.theta.copy()
        k.theta = theta + 0.1
        assert np.allclose(k.theta, theta + 0.1)
        assert k.bounds.shape == (len(theta), 2)

    def test_diag_composition(self):
        X = grid(7)
        k = ConstantKernel(2.0) * RBF(0.4) + WhiteKernel(0.05)
        assert np.allclose(k.diag(X), np.diag(k(X)))


def _fd_gradient(kernel, X, eps=1e-6):
    """Finite-difference dK/dθ for comparison with eval_gradient."""
    theta0 = kernel.theta.copy()
    grads = []
    for j in range(len(theta0)):
        t_hi, t_lo = theta0.copy(), theta0.copy()
        t_hi[j] += eps
        t_lo[j] -= eps
        kernel.theta = t_hi
        K_hi = kernel(X)
        kernel.theta = t_lo
        K_lo = kernel(X)
        grads.append((K_hi - K_lo) / (2 * eps))
    kernel.theta = theta0
    return np.dstack(grads)


class TestEvalGradient:
    KERNELS = {
        "constant": lambda: ConstantKernel(1.7),
        "white": lambda: WhiteKernel(0.05),
        "rbf": lambda: RBF(0.4),
        "rbf_ard": lambda: RBF(np.array([0.2, 0.7])),
        "matern05": lambda: Matern(0.4, nu=0.5),
        "matern15": lambda: Matern(np.array([0.3, 0.6]), nu=1.5),
        "matern25": lambda: Matern(0.4, nu=2.5),
        "sum": lambda: RBF(0.4) + WhiteKernel(0.05),
        "product": lambda: ConstantKernel(2.0) * Matern(0.3, nu=2.5),
        "workhorse": lambda: ConstantKernel(1.0) * Matern(np.array([0.3, 0.3]), nu=2.5)
        + WhiteKernel(1e-3),
    }

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_gradient_matches_finite_differences(self, name):
        k = self.KERNELS[name]()
        X = grid(9)
        K, contract = k(X, eval_gradient=True)
        assert np.array_equal(K, k(X))
        dK = _fd_gradient(k, X)
        A = np.random.default_rng(1).standard_normal((len(X), len(X)))
        for W in (A + A.T, A):  # symmetric (what the GP passes) and not
            got = contract(W)
            assert got.shape == k.theta.shape
            assert np.allclose(got, np.einsum("ij,ijk->k", W, dK), atol=1e-5)

    def test_gradient_requires_square_call(self):
        for make in self.KERNELS.values():
            with pytest.raises(OptimizerError):
                make()(grid(4), grid(3, seed=1), eval_gradient=True)

    def test_walk_visits_nested_kernels(self):
        k = ConstantKernel(1.0) * RBF(0.3) + WhiteKernel(0.01)
        kinds = [type(x).__name__ for x in k.walk()]
        assert {"Sum", "Product", "ConstantKernel", "RBF", "WhiteKernel"} <= set(kinds)


class TestDistanceCache:
    def test_same_array_hits_cache(self):
        k = RBF(np.array([0.3, 0.5]))
        X = grid(10)
        K1 = k(X)
        assert k.cache_misses == 1
        k.theta = k.theta + 0.2  # rescale only — distances unchanged
        K2 = k(X)
        assert k.cache_hits == 1
        # The cached tensor gives the same answer as a fresh computation.
        assert np.allclose(K2, RBF(k.length_scale)(X.copy()))
        assert not np.allclose(K1, K2)

    def test_different_array_misses_cache(self):
        k = Matern(0.4, nu=2.5)
        X = grid(8)
        k(X)
        k(X.copy())
        assert k.cache_misses == 2

    def test_a_miss_holds_one_tensor(self):
        """Refilling the cache frees the old entry first and squares in place."""
        k = Matern(np.full(21, 0.4), nu=2.5)
        X = grid(60, 21)
        tracemalloc.start()
        try:
            k(X)
            tensor = k._diff_cache.nbytes
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            k(X.copy())  # a new array object: miss, the entry is replaced
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert k.cache_misses == 2 and k._diff_cache.nbytes == tensor
        assert peak - held < 0.5 * tensor  # O(n²) temporaries, not old + diff + diff²
