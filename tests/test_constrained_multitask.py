"""Unit tests for constrained BO (SCBO-style) and multi-task GP optimization."""

import numpy as np
import pytest

from repro.core import Objective, TuningSession
from repro.exceptions import OptimizerError
from repro.optimizers import (
    BayesianOptimizer,
    ConstrainedBayesianOptimizer,
    MultiOutputGP,
    MultiTaskOptimizer,
)
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


class TestMultiOutputGP:
    def make_data(self, rng, correlation=1.0, n=30):
        X = rng.random((n, 1))
        f = np.sin(5 * X[:, 0])
        y0 = f + rng.normal(0, 0.02, n)
        y1 = correlation * f + (1 - abs(correlation)) * rng.normal(0, 0.5, n) + rng.normal(0, 0.02, n)
        X_all = np.vstack([X, X])
        tasks = np.array([0] * n + [1] * n)
        y_all = np.concatenate([y0, y1])
        return X_all, tasks, y_all

    def test_fit_predict_shapes(self, rng):
        X, tasks, y = self.make_data(rng)
        gp = MultiOutputGP(2, seed=0).fit(X, tasks, y)
        mean, std = gp.predict(rng.random((7, 1)), task=0, return_std=True)
        assert mean.shape == (7,) and std.shape == (7,)

    def test_learns_positive_task_correlation(self, rng):
        X, tasks, y = self.make_data(rng, correlation=1.0)
        gp = MultiOutputGP(2, seed=0).fit(X, tasks, y)
        corr = gp.task_correlation()
        assert corr[0, 1] > 0.5

    def test_cross_task_transfer(self, rng):
        """Data observed only for task 0 must inform task 1 predictions."""
        n = 25
        X = rng.random((n, 1))
        y = np.sin(5 * X[:, 0])
        # Task 1 gets just 3 anchor points; task 0 gets all.
        X_all = np.vstack([X, X[:3]])
        tasks = np.array([0] * n + [1] * 3)
        y_all = np.concatenate([y, y[:3]])
        gp = MultiOutputGP(2, seed=0).fit(X_all, tasks, y_all)
        Xq = rng.random((40, 1))
        pred1 = gp.predict(Xq, task=1)
        err = np.abs(pred1 - np.sin(5 * Xq[:, 0])).mean()
        assert err < 0.3  # far better than the ~0.6 a 3-point model gives

    @pytest.mark.parametrize("n_tasks, dims", [(2, 1), (3, 4)])
    def test_nll_gradient_matches_central_differences(self, rng, n_tasks, dims):
        """The analytic gradient the hyper-fit follows: input kernel, task covariance, noise."""
        n = 12
        X = np.repeat(rng.random((n, dims)), n_tasks, axis=0)
        tasks = np.tile(np.arange(n_tasks), n)
        gp = MultiOutputGP(n_tasks, seed=0).fit(X, tasks, rng.standard_normal(n * n_tasks))
        theta = gp._theta() + 0.1 * rng.standard_normal(len(gp._theta()))
        _, grad = gp._nll_and_grad(theta.copy())
        h = 1e-6
        central = [
            (gp._nll_and_grad(theta + h * e)[0] - gp._nll_and_grad(theta - h * e)[0]) / (2 * h)
            for e in np.eye(len(theta))
        ]
        np.testing.assert_allclose(grad, central, rtol=1e-5, atol=1e-5)

    def test_validation(self, rng):
        with pytest.raises(OptimizerError):
            MultiOutputGP(1)
        gp = MultiOutputGP(2)
        with pytest.raises(OptimizerError):
            gp.fit(np.zeros((2, 1)), np.array([0, 5]), np.zeros(2))
        with pytest.raises(OptimizerError):
            gp.fit(np.zeros((2, 1)), np.array([0]), np.zeros(2))


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
