"""Unit tests for the GP Bayesian optimizer."""

import numpy as np
import pytest

from repro.core import Objective, TuningSession
from repro.exceptions import OptimizerError
from repro.optimizers import (
    BayesianOptimizer,
    LowerConfidenceBound,
    RandomSearchOptimizer,
)
from repro.space import CategoricalParameter, ConfigurationSpace, FloatParameter

from .conftest import quadratic_evaluator


def bowl_space(n=2):
    space = ConfigurationSpace("bowl", seed=0)
    for i in range(n):
        space.add(FloatParameter(f"x{i}", 0.0, 1.0))
    return space


class TestConvergence:
    def test_beats_target_on_bowl(self):
        space = bowl_space(2)
        opt = BayesianOptimizer(space, n_init=6, seed=0, n_candidates=128)
        res = TuningSession(opt, quadratic_evaluator(), max_trials=30).run()
        assert res.best_value < 0.01

    def test_more_sample_efficient_than_random(self):
        """The tutorial's central offline claim, in miniature."""
        space = bowl_space(3)
        target = 0.05
        bo_hits, rs_hits = [], []
        for seed in range(3):
            bo = BayesianOptimizer(bowl_space(3), n_init=6, seed=seed, n_candidates=128)
            rs = RandomSearchOptimizer(bowl_space(3), seed=seed)
            bo_res = TuningSession(bo, quadratic_evaluator(), max_trials=25).run()
            rs_res = TuningSession(rs, quadratic_evaluator(), max_trials=25).run()
            bo_hits.append(bo_res.best_value)
            rs_hits.append(rs_res.best_value)
        assert np.mean(bo_hits) < np.mean(rs_hits)

    def test_initial_design_is_random(self):
        space = bowl_space(1)
        opt = BayesianOptimizer(space, n_init=5, seed=0)
        configs = opt.suggest(5)
        for c in configs:
            opt.observe(c, 1.0)
        assert not opt.model.is_fitted  # model only built after init phase


class TestEncodings:
    def test_onehot_encoding_works(self):
        space = bowl_space(1)
        space.add(CategoricalParameter("mode", ["a", "b", "c"]))

        def eval_cat(config):
            penalty = {"a": 0.0, "b": 0.5, "c": 1.0}[config["mode"]]
            return (config["x0"] - 0.3) ** 2 + penalty, 1.0

        opt = BayesianOptimizer(space, n_init=6, encoding="onehot", seed=0, n_candidates=128)
        res = TuningSession(opt, eval_cat, max_trials=30).run()
        assert res.best_config["mode"] == "a"

    def test_bad_encoding_rejected(self):
        with pytest.raises(OptimizerError):
            BayesianOptimizer(bowl_space(1), encoding="weird")


class TestBatchSuggest:
    def test_constant_liar_diversifies(self):
        space = bowl_space(2)
        opt = BayesianOptimizer(space, n_init=4, seed=0, n_candidates=128)
        for _ in range(6):
            c = opt.suggest(1)[0]
            opt.observe(c, quadratic_evaluator()(c)[0])
        batch = opt.suggest(4)
        assert len(set(batch)) >= 3  # fantasies prevent 4 identical picks

    def test_lies_cleared_after_batch(self):
        space = bowl_space(1)
        opt = BayesianOptimizer(space, n_init=2, seed=0, n_candidates=64)
        for _ in range(3):
            c = opt.suggest(1)[0]
            opt.observe(c, 0.5)
        opt.suggest(3)
        assert opt._lies == []


class TestAcquisitionPlumbing:
    def test_custom_acquisition(self):
        space = bowl_space(1)
        opt = BayesianOptimizer(
            space, n_init=3, acquisition=LowerConfidenceBound(beta=1.0),
            seed=0, n_candidates=64,
        )
        res = TuningSession(opt, quadratic_evaluator(), max_trials=15).run()
        assert res.best_value < 0.05


class TestCrashHandling:
    def test_learns_to_avoid_crash_region(self):
        """Imputed crash scores should steer BO away from the bad half."""
        space = bowl_space(1)
        from repro.exceptions import SystemCrashError

        def crashy(config):
            if config["x0"] > 0.6:
                raise SystemCrashError("boom")
            return (config["x0"] - 0.4) ** 2, 1.0

        opt = BayesianOptimizer(space, n_init=6, seed=0, n_candidates=128)
        TuningSession(opt, crashy, max_trials=30).run()
        # Late-phase suggestions should mostly stay out of the crash zone.
        # (suggest(1) repeatedly, not a batch: constant-liar fantasies would
        # deliberately push a batch away from the incumbent.)
        late = [opt.suggest(1)[0] for _ in range(10)]
        crash_rate = sum(c["x0"] > 0.6 for c in late) / 10
        assert crash_rate <= 0.3

    def test_validation(self):
        with pytest.raises(OptimizerError):
            BayesianOptimizer(bowl_space(1), n_init=0)
        with pytest.raises(OptimizerError):
            BayesianOptimizer(bowl_space(1), n_candidates=1)
