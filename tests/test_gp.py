"""Unit tests for the from-scratch Gaussian process."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, OptimizerError
from repro.optimizers.gp import GaussianProcessRegressor, default_kernel
from repro.optimizers.kernels import RBF, ConstantKernel, WhiteKernel


def toy_function(X):
    return np.sin(6.0 * X[:, 0]) + 0.5 * X[:, 0]


@pytest.fixture
def fitted_gp(rng):
    X = rng.random((25, 1))
    y = toy_function(X)
    gp = GaussianProcessRegressor(seed=0)
    return gp.fit(X, y), X, y


class TestFitPredict:
    def test_interpolates_training_points(self, fitted_gp):
        gp, X, y = fitted_gp
        pred = gp.predict(X)
        assert np.abs(pred - y).max() < 0.05

    def test_uncertainty_shrinks_near_data(self, fitted_gp):
        """The conditioning slide: observed points pin the posterior down."""
        gp, X, y = fitted_gp
        _, std_at_data = gp.predict(X, return_std=True)
        _, std_far = gp.predict(np.array([[5.0]]), return_std=True)
        assert std_at_data.mean() < std_far[0] / 3

    def test_generalizes_between_points(self, rng):
        X = np.linspace(0, 1, 30)[:, None]
        y = toy_function(X)
        gp = GaussianProcessRegressor(seed=0).fit(X, y)
        Xq = rng.random((50, 1))
        assert np.abs(gp.predict(Xq) - toy_function(Xq)).max() < 0.1

    def test_unfitted_raises(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(NotFittedError):
            gp.predict(np.zeros((1, 1)))

    def test_shape_validation(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(OptimizerError):
            gp.fit(np.zeros((3, 1)), np.zeros(4))
        with pytest.raises(OptimizerError):
            gp.fit(np.zeros((0, 1)), np.zeros(0))

    def test_y_normalization_invariance(self, rng):
        """Predictions should survive large offsets/scales in y."""
        X = rng.random((20, 1))
        y = toy_function(X)
        gp1 = GaussianProcessRegressor(seed=0).fit(X, y)
        gp2 = GaussianProcessRegressor(seed=0).fit(X, y * 1e4 + 1e6)
        p1 = gp1.predict(X)
        p2 = (gp2.predict(X) - 1e6) / 1e4
        assert np.abs(p1 - p2).max() < 0.05

    def test_single_point_fit(self):
        gp = GaussianProcessRegressor(seed=0)
        gp.fit(np.array([[0.5]]), np.array([2.0]))
        assert gp.predict(np.array([[0.5]]))[0] == pytest.approx(2.0, abs=0.2)

    def test_duplicate_points_with_noise(self, rng):
        """Noisy repeats at the same x must not break Cholesky."""
        X = np.repeat(rng.random((5, 1)), 4, axis=0)
        y = toy_function(X) + rng.normal(0, 0.1, len(X))
        gp = GaussianProcessRegressor(seed=0)
        gp.fit(X, y)
        mean, std = gp.predict(X[:5], return_std=True)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))


class TestHyperparameterFitting:
    def test_mll_improves_with_optimization(self, rng):
        X = rng.random((25, 1))
        y = toy_function(X)
        fixed = GaussianProcessRegressor(
            kernel=default_kernel(), optimize_hypers=False, seed=0
        ).fit(X, y)
        tuned = GaussianProcessRegressor(
            kernel=default_kernel(), optimize_hypers=True, seed=0
        ).fit(X, y)
        assert tuned.log_marginal_likelihood() >= fixed.log_marginal_likelihood() - 1e-6

    def test_learns_noise_level(self, rng):
        X = rng.random((40, 1))
        noisy_y = toy_function(X) + rng.normal(0, 0.3, 40)
        kernel = ConstantKernel(1.0) * RBF(0.3) + WhiteKernel(1e-4)
        gp = GaussianProcessRegressor(kernel=kernel, seed=0).fit(X, noisy_y)
        # The learned white-noise term should be near the injected variance.
        learned_noise = np.exp(gp.kernel.theta[-1])
        assert 0.01 < learned_noise < 0.5
