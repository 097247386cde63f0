"""Unit tests for knowledge transfer: warm starts, prior bank, priors."""

import numpy as np
import pytest

from repro.core import Objective, Trial, TrialStatus, TuningSession
from repro.exceptions import OptimizerError
from repro.optimizers import (
    BayesianOptimizer,
    PriorBank,
    PriorRun,
    RandomSearchOptimizer,
    space_with_priors,
    warm_start_from_history,
)
from repro.space import ConfigurationSpace, FloatParameter, NormalPrior
from repro.workloads import tpcc, tpch, ycsb

from .conftest import quadratic_evaluator


def space_1d():
    s = ConfigurationSpace("t", seed=0)
    s.add(FloatParameter("x", 0.0, 1.0))
    return s


def make_history(space, values_scores, failed_at=()):
    """Build a list of trials with given (x, score) pairs."""
    trials = []
    for i, (x, score) in enumerate(values_scores):
        trials.append(
            Trial(i, space.make({"x": x}), TrialStatus.SUCCEEDED, {"score": score}, cost=1.0)
        )
    for j, x in enumerate(failed_at):
        trials.append(
            Trial(len(values_scores) + j, space.make({"x": x}), TrialStatus.FAILED, {}, cost=1.0)
        )
    return trials


class TestWarmStart:
    def test_transfers_top_fraction(self):
        space = space_1d()
        prior = make_history(space, [(0.1, 5.0), (0.3, 1.0), (0.9, 9.0), (0.35, 1.5)])
        opt = RandomSearchOptimizer(space, Objective("score"), seed=0)
        n = warm_start_from_history(opt, prior, top_fraction=0.5)
        assert n == 2
        assert opt.history.best_value() == 1.0

    def test_failures_always_transfer(self):
        space = space_1d()
        prior = make_history(space, [(0.3, 1.0)], failed_at=(0.95, 0.99))
        opt = RandomSearchOptimizer(space, Objective("score"), seed=0)
        n = warm_start_from_history(opt, prior, top_fraction=0.5)
        assert n == 3
        assert len(opt.history.failed()) == 2

    def test_warm_started_bo_converges_faster(self):
        """The slide's point: reuse makes the new optimization cheaper."""
        space = space_1d()
        # Prior run found the region near 0.3.
        prior = make_history(
            space, [(0.28, 0.0004), (0.35, 0.0025), (0.5, 0.04), (0.8, 0.25), (0.1, 0.04)]
        )
        cold_best, warm_best = [], []
        for seed in range(3):
            cold = BayesianOptimizer(space_1d(), n_init=5, seed=seed, n_candidates=64)
            warm = BayesianOptimizer(space_1d(), n_init=5, seed=seed, n_candidates=64)
            warm_start_from_history(warm, prior, top_fraction=1.0)
            cold_res = TuningSession(cold, quadratic_evaluator(), max_trials=6).run()
            warm_res = TuningSession(warm, quadratic_evaluator(), max_trials=6).run()
            cold_best.append(cold_res.best_value)
            warm_best.append(warm_res.best_value)
        # Warm start guarantees the transferred incumbent from trial one;
        # a lucky cold run can still edge it out by noise, hence the slack.
        assert np.mean(warm_best) <= np.mean(cold_best) + 1e-3
        assert max(warm_best) <= 0.0004 + 1e-12  # never worse than transferred

    def test_validation(self):
        opt = RandomSearchOptimizer(space_1d(), Objective("score"), seed=0)
        with pytest.raises(OptimizerError):
            warm_start_from_history(opt, [], top_fraction=0.0)


class TestPriorBank:
    def build_bank(self):
        space = space_1d()
        bank = PriorBank()
        bank.add(PriorRun(ycsb("a"), make_history(space, [(0.2, 1.0)])))
        bank.add(PriorRun(tpcc(100), make_history(space, [(0.5, 2.0)])))
        bank.add(PriorRun(tpch(10), make_history(space, [(0.8, 3.0)])))
        return bank

    def test_nearest_finds_same_family(self):
        bank = self.build_bank()
        run, dist = bank.nearest(ycsb("b"))[0]
        assert "ycsb" in run.workload.name

    def test_nearest_k(self):
        bank = self.build_bank()
        results = bank.nearest(tpcc(120), k=2)
        assert len(results) == 2
        assert results[0][1] <= results[1][1]

    def test_empty_bank(self):
        with pytest.raises(OptimizerError):
            PriorBank().nearest(ycsb("a"))

    def test_warm_start_via_bank(self):
        bank = self.build_bank()
        opt = RandomSearchOptimizer(space_1d(), Objective("score"), seed=0)
        n = bank.warm_start(opt, ycsb("a"), k=1)
        assert n >= 1
        assert len(opt.history) >= 1


class TestSpaceWithPriors:
    def test_sampling_shifts(self, rng):
        space = space_1d()
        biased = space_with_priors(space, {"x": NormalPrior(0.9, 0.03)})
        draws = [biased.sample(rng)["x"] for _ in range(100)]
        assert np.mean(draws) > 0.8

    def test_original_space_untouched(self, rng):
        space = space_1d()
        space_with_priors(space, {"x": NormalPrior(0.9, 0.03)})
        draws = [space.sample(rng)["x"] for _ in range(200)]
        assert 0.4 < np.mean(draws) < 0.6

    def test_keeps_conditions_and_constraints(self, conditional_space):
        new = space_with_priors(conditional_space, {})
        assert len(new.conditions) == len(conditional_space.conditions)
        assert len(new.constraints) == len(conditional_space.constraints)
