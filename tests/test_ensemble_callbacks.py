"""Unit tests for the OpenTuner-style ensemble and convergence stopping."""

import numpy as np
import pytest

from repro.core import Objective, StopWhenConverged, TuningSession
from repro.exceptions import OptimizerError
from repro.optimizers import (
    BayesianOptimizer,
    CMAESOptimizer,
    EnsembleOptimizer,
    RandomSearchOptimizer,
    SimulatedAnnealingOptimizer,
)
from repro.space import ConfigurationSpace, FloatParameter

from .conftest import quadratic_evaluator


def bowl_space(n=3):
    s = ConfigurationSpace("ens", seed=0)
    for i in range(n):
        s.add(FloatParameter(f"x{i}", 0.0, 1.0))
    return s


MEMBERS = {
    "random": lambda s: RandomSearchOptimizer(s, seed=0),
    "bo": lambda s: BayesianOptimizer(s, n_init=5, seed=0, n_candidates=96),
    "anneal": lambda s: SimulatedAnnealingOptimizer(s, seed=0),
}


class TestEnsemble:
    def test_converges(self):
        opt = EnsembleOptimizer(bowl_space(), MEMBERS, seed=0)
        res = TuningSession(opt, quadratic_evaluator(), max_trials=50).run()
        assert res.best_value < 0.02

    def test_every_member_gets_pulled(self):
        opt = EnsembleOptimizer(bowl_space(), MEMBERS, seed=0)
        TuningSession(opt, quadratic_evaluator(), max_trials=30).run()
        alloc = opt.allocation()
        assert all(alloc[name] >= 1 for name in MEMBERS)
        assert sum(alloc.values()) == 30

    def test_members_share_observations(self):
        opt = EnsembleOptimizer(bowl_space(), MEMBERS, seed=0)
        TuningSession(opt, quadratic_evaluator(), max_trials=20).run()
        # Surrogate members see every trial, not just their own.
        assert len(opt.members["bo"].history) == 20
        assert len(opt.members["random"].history) == 20

    def test_generation_members_only_see_their_own(self):
        """A CMA-ES member sees every trial, but its populations are built
        only from its own suggestions: a sibling's trial carries no sample."""
        members = dict(MEMBERS)
        members["cmaes"] = lambda s: CMAESOptimizer(s, seed=0)
        opt = EnsembleOptimizer(bowl_space(), members, seed=0)
        TuningSession(opt, quadratic_evaluator(), max_trials=40).run()
        cmaes = opt.members["cmaes"]
        assert len(cmaes.history) == 40
        assert cmaes.generation >= 1
        assert cmaes.generation * cmaes.lam + len(cmaes._results) == opt.allocation()["cmaes"]

    def test_credit_shifts_allocation(self):
        """A member that only produces terrible points should be starved."""

        class AwfulOptimizer(RandomSearchOptimizer):
            def _suggest(self):
                # Always the worst corner.
                return self.space.make({f"x{i}": 1.0 for i in range(self.space.n_dims)})

        members = {
            "bo": lambda s: BayesianOptimizer(s, n_init=5, seed=0, n_candidates=96),
            "awful": lambda s: AwfulOptimizer(s, seed=0),
        }
        opt = EnsembleOptimizer(bowl_space(), members, seed=0)
        TuningSession(opt, quadratic_evaluator(), max_trials=40).run()
        alloc = opt.allocation()
        assert alloc["bo"] > alloc["awful"]

    def test_validation(self):
        with pytest.raises(OptimizerError):
            EnsembleOptimizer(bowl_space(), {"only": MEMBERS["random"]})

    def test_objective_propagates_to_members(self):
        obj = Objective("throughput", minimize=False)
        opt = EnsembleOptimizer(bowl_space(), MEMBERS, objectives=obj, seed=0)
        cfg = opt.suggest(1)[0]
        opt.observe(cfg, {"throughput": 100.0})
        assert opt.members["bo"].history.best_value() == 100.0


class TestStopWhenConverged:
    def test_stops_on_plateau(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        values = iter([5.0, 4.0, 3.0] + [3.5] * 50)
        session = TuningSession(
            opt, lambda c: next(values), max_trials=50,
            callbacks=[StopWhenConverged(patience=5, min_trials=5)],
        )
        res = session.run()
        assert res.n_trials < 15  # stopped well before the budget

    def test_keeps_going_while_improving(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        values = iter(100.0 - i for i in range(100))
        session = TuningSession(
            opt, lambda c: next(values), max_trials=30,
            callbacks=[StopWhenConverged(patience=5, min_trials=5)],
        )
        assert session.run().n_trials == 30

    def test_min_trials_respected(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        session = TuningSession(
            opt, lambda c: 1.0, max_trials=30,
            callbacks=[StopWhenConverged(patience=2, min_trials=12)],
        )
        assert session.run().n_trials >= 12

    def test_validation(self):
        with pytest.raises(ValueError):
            StopWhenConverged(patience=0)
