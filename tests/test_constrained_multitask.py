"""Unit tests for constrained BO (SCBO-style), the ICM kernel and multi-task optimization."""

import numpy as np
import pytest

from repro.core import Objective, TuningSession
from repro.exceptions import OptimizerError
from repro.optimizers import (
    BayesianOptimizer,
    ConstrainedBayesianOptimizer,
    GaussianProcessRegressor,
    Matern,
    MultiTaskOptimizer,
    WhiteKernel,
)
from repro.optimizers.kernels import Coregionalized
from repro.space import ConfigurationSpace, FloatParameter


def space_2d():
    s = ConfigurationSpace("c", seed=0)
    s.add(FloatParameter("x", 0.0, 1.0))
    s.add(FloatParameter("y", 0.0, 1.0))
    return s


def constrained_evaluator(config):
    """Objective pulls toward (1, 1); the constraint x + y <= 1 pushes back.

    Constrained optimum lies on the x + y = 1 line at (0.5, 0.5).
    """
    x, y = config["x"], config["y"]
    return {
        "loss": (x - 1.0) ** 2 + (y - 1.0) ** 2,
        "budget_violation": x + y - 1.0,  # feasible iff <= 0
    }, 1.0


class TestConstrainedBO:
    def run_opt(self, seed=0, trials=40):
        opt = ConstrainedBayesianOptimizer(
            space_2d(),
            constraint_metrics=["budget_violation"],
            n_init=8,
            n_candidates=192,
            objectives=Objective("loss"),
            seed=seed,
        )
        TuningSession(opt, constrained_evaluator, max_trials=trials).run()
        return opt

    def test_best_feasible_is_feasible(self):
        opt = self.run_opt()
        best = opt.best_feasible_trial()
        assert best.metric("budget_violation") <= 0

    def test_approaches_constrained_optimum(self):
        opt = self.run_opt()
        best = opt.best_feasible_trial()
        # Constrained optimum value is (0.5-1)^2 * 2 = 0.5.
        assert best.metric("loss") < 0.62

    def test_outperforms_unconstrained_bo_on_feasible_metric(self):
        """Vanilla BO chases (1,1) and rarely samples the feasible ridge."""
        opt_c = self.run_opt(seed=1)
        feasible_c = opt_c.best_feasible_trial().metric("loss")

        opt_u = BayesianOptimizer(space_2d(), n_init=8, objectives=Objective("loss"), seed=1, n_candidates=192)
        TuningSession(opt_u, constrained_evaluator, max_trials=40).run()
        feasible_u = [
            t.metric("loss")
            for t in opt_u.history.completed()
            if t.metric("budget_violation") <= 0
        ]
        best_u = min(feasible_u) if feasible_u else np.inf
        assert feasible_c <= best_u + 0.1

    def test_beats_random_on_feasible_quality(self):
        """Across seeds, constrained BO's best feasible point is closer to
        the constrained optimum (loss 0.5) than random search's."""
        from repro.optimizers import RandomSearchOptimizer

        cbo, rand = [], []
        for seed in range(3):
            opt = self.run_opt(seed=seed)
            cbo.append(opt.best_feasible_trial().metric("loss"))
            rs = RandomSearchOptimizer(space_2d(), Objective("loss"), seed=seed)
            TuningSession(rs, constrained_evaluator, max_trials=40).run()
            feasible = [
                t.metric("loss")
                for t in rs.history.completed()
                if t.metric("budget_violation") <= 0
            ]
            rand.append(min(feasible) if feasible else np.inf)
        assert np.mean(cbo) < np.mean(rand)

    def test_validation(self):
        with pytest.raises(OptimizerError):
            ConstrainedBayesianOptimizer(space_2d(), constraint_metrics=[])
        with pytest.raises(OptimizerError):
            ConstrainedBayesianOptimizer(space_2d(), constraint_metrics=["c"], n_init=0)

    def test_no_feasible_yet_raises(self):
        opt = ConstrainedBayesianOptimizer(
            space_2d(), constraint_metrics=["budget_violation"], objectives=Objective("loss"), seed=0
        )
        with pytest.raises(OptimizerError):
            opt.best_feasible_trial()


def icm_gp(n_tasks, seed=0):
    """The surrogate MultiTaskOptimizer builds: an ICM kernel under the one GP."""
    return GaussianProcessRegressor(Coregionalized(Matern(0.3, nu=2.5), n_tasks) + WhiteKernel(1e-3), seed=seed)


def rows(X, tasks):
    return np.column_stack([X, tasks])


class TestMultiOutputGP:
    """A multi-output GP is the one GaussianProcessRegressor over a Coregionalized kernel."""

    def make_data(self, rng, correlation=1.0, n=30):
        X = rng.random((n, 1))
        f = np.sin(5 * X[:, 0])
        y0 = f + rng.normal(0, 0.02, n)
        y1 = correlation * f + (1 - abs(correlation)) * rng.normal(0, 0.5, n) + rng.normal(0, 0.02, n)
        return rows(np.vstack([X, X]), [0] * n + [1] * n), np.concatenate([y0, y1])

    def test_fit_predict_shapes(self, rng):
        gp = icm_gp(2).fit(*self.make_data(rng))
        mean, std = gp.predict(rows(rng.random((7, 1)), np.zeros(7)), return_std=True)
        assert mean.shape == (7,) and std.shape == (7,)

    def test_learns_positive_task_correlation(self, rng):
        gp = icm_gp(2).fit(*self.make_data(rng, correlation=1.0))
        B = gp.kernel.k1.task_covariance()
        assert B[0, 1] / np.sqrt(B[0, 0] * B[1, 1]) > 0.5

    def test_cross_task_transfer(self, rng):
        """Data observed only for task 0 must inform task 1 predictions."""
        n = 25
        X = rng.random((n, 1))
        y = np.sin(5 * X[:, 0])
        # Task 1 gets just 3 anchor points; task 0 gets all.
        gp = icm_gp(2).fit(rows(np.vstack([X, X[:3]]), [0] * n + [1] * 3), np.concatenate([y, y[:3]]))
        Xq = rng.random((40, 1))
        pred1 = gp.predict(rows(Xq, np.ones(40)))
        err = np.abs(pred1 - np.sin(5 * Xq[:, 0])).mean()
        assert err < 0.3  # far better than the ~0.6 a 3-point model gives

    @pytest.mark.parametrize("n_tasks, dims", [(2, 1), (3, 4)])
    def test_nll_gradient_matches_central_differences(self, rng, n_tasks, dims):
        """The analytic gradient the hyper-fit follows: input kernel, task covariance, noise."""
        n = 12
        X = rows(np.repeat(rng.random((n, dims)), n_tasks, axis=0), np.tile(np.arange(n_tasks), n))
        gp = icm_gp(n_tasks).fit(X, rng.standard_normal(n * n_tasks))
        theta = gp.kernel.theta + 0.1 * rng.standard_normal(len(gp.kernel.theta))
        _, grad = gp._nll_and_grad(theta.copy())
        h = 1e-6
        central = [
            (gp._nll_and_grad(theta + h * e)[0] - gp._nll_and_grad(theta - h * e)[0]) / (2 * h)
            for e in np.eye(len(theta))
        ]
        np.testing.assert_allclose(grad, central, rtol=1e-5, atol=1e-5)

    def test_diag_is_the_diagonal_of_the_matrix(self, rng):
        kernel = icm_gp(3).kernel
        kernel.theta = kernel.theta + 0.3 * rng.standard_normal(len(kernel.theta))
        X = rows(rng.random((9, 2)), np.tile(np.arange(3), 3))
        np.testing.assert_allclose(kernel.diag(X), np.diag(kernel(X)), rtol=1e-12)

    def test_one_fit_builds_the_distance_tensor_once(self, rng):
        """Every θ evaluation and the recompute after them see the same input slice."""
        stats = icm_gp(2).fit(*self.make_data(rng)).stats_dict()
        assert stats["distance_cache_misses"] == 1
        assert stats["distance_cache_hits"] == stats["nll_evals"] > 0

    def test_validation(self, rng):
        with pytest.raises(OptimizerError):
            Coregionalized(Matern(), 1)
        with pytest.raises(OptimizerError):  # a training row's task id out of range
            icm_gp(2).fit(rows(np.zeros((2, 1)), [0, 5]), np.zeros(2))
        gp = icm_gp(2).fit(*self.make_data(rng, n=5))
        for task in (2, -1):  # a query row's task id out of range
            with pytest.raises(OptimizerError):
                gp.predict(rows(np.zeros((1, 1)), [task]))


class TestMultiTaskOptimizer:
    OBJS = [Objective("lat"), Objective("mem")]

    @staticmethod
    def evaluator(config):
        """Correlated tasks with slightly offset optima (0.3 vs 0.4)."""
        x = config["x"]
        return {"lat": (x - 0.3) ** 2, "mem": (x - 0.4) ** 2 + 0.1}, 1.0

    def space(self):
        s = ConfigurationSpace("mt", seed=0)
        s.add(FloatParameter("x", 0.0, 1.0))
        return s

    def test_optimizes_both_tasks(self):
        opt = MultiTaskOptimizer(self.space(), self.OBJS, n_init=6, n_candidates=96, seed=0)
        TuningSession(opt, self.evaluator, max_trials=25).run()
        assert abs(opt.best_for(0).config["x"] - 0.3) < 0.1
        assert abs(opt.best_for(1).config["x"] - 0.4) < 0.1

    def test_round_robin_focus(self):
        opt = MultiTaskOptimizer(self.space(), self.OBJS, n_init=2, n_candidates=32, seed=0)
        focuses = []
        for _ in range(4):
            cfg = opt.suggest(1)[0]
            focuses.append(opt._focus)
            opt.observe(cfg, self.evaluator(cfg)[0])
        assert set(focuses) == {0, 1}

    def test_requires_two_objectives(self):
        with pytest.raises(OptimizerError):
            MultiTaskOptimizer(self.space(), [Objective("lat")], seed=0)
