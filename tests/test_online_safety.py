"""Unit tests for safe Bayesian exploration."""

import numpy as np
import pytest

from repro.core import Objective, TuningSession
from repro.exceptions import OptimizerError
from repro.online import SafeBayesianOptimizer
from repro.optimizers import BayesianOptimizer
from repro.space import ConfigurationSpace, FloatParameter


def cliff_space():
    space = ConfigurationSpace("cliff", seed=0)
    space.add(FloatParameter("x", 0.0, 1.0, default=0.2))
    return space


def cliff_evaluator(config):
    """Good basin near the default; a catastrophic cliff for x > 0.7."""
    x = config["x"]
    if x > 0.7:
        return 50.0, 1.0  # massive regression
    return (x - 0.45) ** 2, 1.0


class TestSafeBO:
    def test_avoids_the_cliff(self):
        opt = SafeBayesianOptimizer(
            cliff_space(), n_init=5, seed=0, n_candidates=96,
            safety_tolerance=0.5,
        )
        res = TuningSession(opt, cliff_evaluator, max_trials=30).run()
        cliff_visits = sum(t.config["x"] > 0.7 for t in res.history.trials)
        assert cliff_visits == 0

    def test_vanilla_bo_walks_off_the_cliff(self):
        """The contrast that motivates safe exploration."""
        opt = BayesianOptimizer(cliff_space(), n_init=5, seed=0, n_candidates=96)
        res = TuningSession(opt, cliff_evaluator, max_trials=30).run()
        cliff_visits = sum(t.config["x"] > 0.7 for t in res.history.trials)
        assert cliff_visits >= 1

    def test_still_improves_within_safe_region(self):
        opt = SafeBayesianOptimizer(
            cliff_space(), n_init=5, seed=0, n_candidates=96,
            safety_tolerance=0.5,
        )
        res = TuningSession(opt, cliff_evaluator, max_trials=40).run()
        assert res.best_value < 0.02  # found ~0.45 from the default 0.2

    def test_initial_design_stays_near_default(self):
        opt = SafeBayesianOptimizer(cliff_space(), n_init=4, seed=0, n_candidates=32)
        first = [opt.suggest(1)[0]["x"] for _ in range(1)]
        opt.observe(cliff_space().make({"x": first[0]}), 0.1)
        probes = []
        for _ in range(3):
            cfg = opt.suggest(1)[0]
            probes.append(cfg["x"])
            opt.observe(cfg, 0.1)
        assert all(abs(p - 0.2) < 0.3 for p in probes)

    def test_falls_back_to_incumbent_when_nothing_safe(self):
        opt = SafeBayesianOptimizer(
            cliff_space(), n_init=2, seed=0, n_candidates=16,
            safety_tolerance=0.0, kappa=100.0,  # absurdly strict
        )
        for _ in range(2):
            cfg = opt.suggest(1)[0]
            opt.observe(cfg, 1.0)
        # With kappa=100 nothing is provably safe: stay at the incumbent.
        suggestion = opt.suggest(1)[0]
        assert suggestion == opt.history.best().config

    def test_validation(self):
        with pytest.raises(OptimizerError):
            SafeBayesianOptimizer(cliff_space(), safety_tolerance=-1.0)
        with pytest.raises(OptimizerError):
            SafeBayesianOptimizer(cliff_space(), kappa=-0.5)
