"""Unit tests for grid / random / annealing search."""

import numpy as np
import pytest

from repro.core import Objective, SessionManager, TuningSession
from repro.exceptions import ExhaustedError, OptimizerError
from repro.optimizers import (
    GridSearchOptimizer,
    RandomSearchOptimizer,
    SimulatedAnnealingOptimizer,
)
from repro.space import CategoricalParameter, ConfigurationSpace, FloatParameter

from .conftest import quadratic_evaluator


def bowl_space(n=2):
    space = ConfigurationSpace("bowl", seed=0)
    for i in range(n):
        space.add(FloatParameter(f"x{i}", 0.0, 1.0))
    return space


class TestRandomSearch:
    def test_finds_decent_optimum_in_1d(self):
        space = bowl_space(1)
        opt = RandomSearchOptimizer(space, Objective("f"), seed=0)
        res = TuningSession(opt, quadratic_evaluator(), max_trials=50).run()
        assert res.best_value < 0.01

    def test_reproducible(self):
        space = bowl_space(2)
        a = RandomSearchOptimizer(space, seed=3).suggest(5)
        b = RandomSearchOptimizer(space, seed=3).suggest(5)
        assert a == b

    def test_respects_constraints(self, conditional_space):
        opt = RandomSearchOptimizer(conditional_space, seed=0)
        for cfg in opt.suggest(30):
            assert conditional_space.is_feasible(cfg)


class TestGridSearch:
    def test_exhausts_grid(self):
        space = bowl_space(1)
        opt = GridSearchOptimizer(space, points_per_dim=5)
        configs = opt.suggest(5)
        xs = sorted(c["x0"] for c in configs)
        assert xs == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        with pytest.raises(ExhaustedError):
            opt.suggest(1)

    def test_a_session_completes_at_the_last_lattice_point(self):
        """A budget above the grid's size ends with the grid, not with an
        ExhaustedError out of run()."""
        space = ConfigurationSpace("grid", seed=0)
        space.add(CategoricalParameter("k", ["a", "b", "c"]))
        session = SessionManager().create(
            space, optimizer="grid", max_trials=10, seed=0, evaluator=lambda c: "abc".index(c["k"]),
        )
        result = session.run()
        assert session.is_complete and result.n_trials == 3
        assert sorted(t.config["k"] for t in result.history) == ["a", "b", "c"]

    def test_shuffle_changes_order(self):
        a = GridSearchOptimizer(bowl_space(2), points_per_dim=4, shuffle=True, seed=0)
        b = GridSearchOptimizer(bowl_space(2), points_per_dim=4, shuffle=False)
        assert a.suggest(16) != b.suggest(16)

    def test_grid_resolution_limits_accuracy(self):
        """The slide's lesson: grid quality is capped by its resolution."""
        space = bowl_space(1)
        opt = GridSearchOptimizer(space, points_per_dim=3)
        res = TuningSession(opt, quadratic_evaluator({"x0": 0.3}), max_trials=3).run()
        # Best lattice point is 0.5 -> error 0.04; never better.
        assert res.best_value == pytest.approx(0.04, abs=1e-6)


class TestSimulatedAnnealing:
    def test_converges_on_bowl(self):
        space = bowl_space(2)
        opt = SimulatedAnnealingOptimizer(space, seed=0, n_init=5)
        res = TuningSession(opt, quadratic_evaluator(), max_trials=80).run()
        assert res.best_value < 0.05

    def test_validation(self):
        with pytest.raises(OptimizerError):
            SimulatedAnnealingOptimizer(bowl_space(1), cooling=1.5)
        with pytest.raises(OptimizerError):
            SimulatedAnnealingOptimizer(bowl_space(1), n_init=0)

    def test_accepts_worse_moves_at_high_temperature(self):
        space = bowl_space(1)
        opt = SimulatedAnnealingOptimizer(
            space, initial_temperature=1e6, cooling=0.999, n_init=1, seed=0
        )
        # Feed alternating good/bad scores; with huge T, current follows
        # along rather than locking to the best.
        cfg = opt.suggest(1)[0]
        opt.observe(cfg, 0.0)
        best_cfg = opt._current
        cfg2 = opt.suggest(1)[0]
        opt.observe(cfg2, 100.0)
        assert opt._current == cfg2  # accepted uphill

    def test_rejects_worse_moves_when_cold(self):
        space = bowl_space(1)
        opt = SimulatedAnnealingOptimizer(
            space, initial_temperature=1e-9, cooling=0.5, n_init=1, seed=0
        )
        cfg = opt.suggest(1)[0]
        opt.observe(cfg, 0.0)
        cfg2 = opt.suggest(1)[0]
        opt.observe(cfg2, 100.0)
        assert opt._current == cfg

    def test_calibrates_temperature_from_init(self):
        opt = SimulatedAnnealingOptimizer(bowl_space(1), n_init=3, seed=0)
        for v in (1.0, 5.0, 9.0):
            opt.observe(opt.suggest(1)[0], v)
        assert opt._temperature is not None and opt._temperature > 0
