"""Unit tests for multi-armed bandit optimizers."""

import numpy as np
import pytest

from repro.core import Objective
from repro.exceptions import OptimizerError
from repro.optimizers import MultiArmedBanditOptimizer
from repro.space import ConfigurationSpace, FloatParameter


@pytest.fixture
def arm_space():
    space = ConfigurationSpace("arms", seed=0)
    space.add(FloatParameter("x", 0.0, 1.0))
    return space


def make_arms(space, values):
    return [space.make({"x": v}) for v in values]


def pull_loop(opt, latency_of, n=200):
    for _ in range(n):
        cfg = opt.suggest(1)[0]
        opt.observe(cfg, latency_of(cfg))


@pytest.mark.parametrize("policy", ["epsilon", "ucb1", "thompson"])
class TestPolicies:
    def test_finds_best_arm(self, arm_space, policy, rng):
        arms = make_arms(arm_space, [0.1, 0.3, 0.5, 0.7, 0.9])
        opt = MultiArmedBanditOptimizer(
            arm_space, arms=arms, policy=policy, objectives=Objective("lat"), seed=1
        )

        def latency(cfg):
            return abs(cfg["x"] - 0.7) + rng.normal(0, 0.02)

        pull_loop(opt, latency)
        assert opt.best_arm()["x"] == 0.7

    def test_exploits_more_over_time(self, arm_space, policy):
        arms = make_arms(arm_space, [0.1, 0.9])
        opt = MultiArmedBanditOptimizer(
            arm_space, arms=arms, policy=policy, objectives=Objective("lat"), seed=1
        )
        pull_loop(opt, lambda cfg: cfg["x"], n=150)  # lower x is better
        pulls = [s.pulls for s in opt.stats]
        assert pulls[0] > pulls[1]  # best arm pulled more


class TestMechanics:
    def test_every_arm_pulled_once_first(self, arm_space):
        arms = make_arms(arm_space, [0.1, 0.3, 0.5, 0.7])
        opt = MultiArmedBanditOptimizer(arm_space, arms=arms, seed=0)
        first = []
        for _ in range(4):
            c = opt.suggest(1)[0]
            opt.observe(c, 1.0)
            first.append(c)
        assert set(first) == set(arms)

    def test_random_arms_when_unspecified(self, arm_space):
        opt = MultiArmedBanditOptimizer(arm_space, n_arms=7, seed=0)
        assert len(opt.arms) == 7

    def test_non_arm_observation_ignored(self, arm_space):
        arms = make_arms(arm_space, [0.1, 0.9])
        opt = MultiArmedBanditOptimizer(arm_space, arms=arms, seed=0)
        foreign = arm_space.make({"x": 0.5})
        opt.observe(foreign, 1.0)
        assert opt.total_pulls == 0

    def test_best_arm_requires_pulls(self, arm_space):
        arms = make_arms(arm_space, [0.1, 0.9])
        opt = MultiArmedBanditOptimizer(arm_space, arms=arms, seed=0)
        with pytest.raises(OptimizerError):
            opt.best_arm()

    def test_welford_stats(self):
        from repro.optimizers.bandits import BanditArmStats

        stats = BanditArmStats()
        data = [1.0, 2.0, 3.0, 4.0]
        for v in data:
            stats.update(v)
        assert stats.mean == pytest.approx(np.mean(data))
        assert stats.variance == pytest.approx(np.var(data, ddof=1))

    def test_validation(self, arm_space):
        with pytest.raises(OptimizerError):
            MultiArmedBanditOptimizer(arm_space, policy="bogus")
        with pytest.raises(OptimizerError):
            MultiArmedBanditOptimizer(arm_space, arms=[arm_space.make({})])
