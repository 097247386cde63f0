"""Unit tests for multi-objective ParEGO / linear scalarisation."""

import numpy as np
import pytest

from repro.core import Objective, TuningSession
from repro.exceptions import OptimizerError
from repro.optimizers import LinearScalarizationOptimizer, ParEGOOptimizer, hypervolume_2d
from repro.optimizers.pareto import pareto_front_mask
from repro.space import ConfigurationSpace, FloatParameter


def tradeoff_space():
    space = ConfigurationSpace("trade", seed=0)
    space.add(FloatParameter("x", 0.0, 1.0))
    return space


def tradeoff_evaluator(config):
    """A convex Pareto front: f1 = x², f2 = (1 − x)² (both minimized)."""
    x = config["x"]
    return {"f1": x**2, "f2": (1 - x) ** 2}, 1.0


OBJS = [Objective("f1"), Objective("f2")]


class TestParEGO:
    def test_finds_spread_of_tradeoffs(self):
        opt = ParEGOOptimizer(tradeoff_space(), OBJS, n_init=6, n_candidates=64, seed=0)
        TuningSession(opt, tradeoff_evaluator, max_trials=30).run()
        front = opt.pareto_trials()
        xs = sorted(t.config["x"] for t in front)
        assert len(front) >= 5
        assert xs[0] < 0.25 and xs[-1] > 0.75  # both ends of the front

    def test_front_is_nondominated(self):
        opt = ParEGOOptimizer(tradeoff_space(), OBJS, n_init=5, n_candidates=64, seed=0)
        TuningSession(opt, tradeoff_evaluator, max_trials=20).run()
        F = np.array(
            [[t.metric("f1"), t.metric("f2")] for t in opt.pareto_trials()]
        )
        assert pareto_front_mask(F).all()

    def test_hypervolume_grows_with_budget(self):
        ref = np.array([1.5, 1.5])
        hvs = []
        for budget in (8, 30):
            opt = ParEGOOptimizer(tradeoff_space(), OBJS, n_init=5, n_candidates=64, seed=0)
            TuningSession(opt, tradeoff_evaluator, max_trials=budget).run()
            hvs.append(hypervolume_2d(opt.objective_values(), ref))
        assert hvs[1] >= hvs[0]

    def test_requires_two_objectives(self):
        with pytest.raises(OptimizerError):
            ParEGOOptimizer(tradeoff_space(), [Objective("f1")], seed=0)

    def test_maximize_objectives_supported(self):
        objs = [Objective("f1", minimize=False), Objective("f2", minimize=False)]

        def both_max(config):
            x = config["x"]
            return {"f1": x, "f2": 1 - x}, 1.0

        opt = ParEGOOptimizer(tradeoff_space(), objs, n_init=5, n_candidates=64, seed=0)
        TuningSession(opt, both_max, max_trials=15).run()
        assert len(opt.pareto_trials()) >= 3


class TestLinearScalarization:
    def test_also_optimizes(self):
        opt = LinearScalarizationOptimizer(
            tradeoff_space(), OBJS, n_init=5, n_candidates=64, seed=0
        )
        TuningSession(opt, tradeoff_evaluator, max_trials=25).run()
        assert len(opt.pareto_trials()) >= 2

    def test_parego_covers_concave_fronts_better(self):
        """Linear scalarisation can only land on the convex hull of the
        front; Tchebycheff reaches concave regions — the slide's reason to
        prefer ParEGO."""

        def concave(config):
            # Concave front: f1 = x, f2 = sqrt(1 - x²)-ish flipped.
            x = config["x"]
            return {"f1": x, "f2": 1.0 - np.sqrt(max(0.0, 1.0 - (1 - x) ** 2))}, 1.0

        def middle_coverage(opt_cls, seed):
            opt = opt_cls(tradeoff_space(), OBJS, n_init=6, n_candidates=64, seed=seed)
            TuningSession(opt, concave, max_trials=30).run()
            xs = [t.config["x"] for t in opt.pareto_trials()]
            return sum(0.25 < x < 0.75 for x in xs)

        parego = sum(middle_coverage(ParEGOOptimizer, s) for s in range(2))
        linear = sum(middle_coverage(LinearScalarizationOptimizer, s) for s in range(2))
        assert parego >= linear
