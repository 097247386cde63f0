"""Unit tests for the ask/tell protocol, Trial, History, Objective."""

import numpy as np
import pytest

from repro.core import Objective, Optimizer, Trial, TrialStatus
from repro.exceptions import OptimizerError
from repro.optimizers import RandomSearchOptimizer


class TestObjective:
    def test_minimize_score_identity(self):
        obj = Objective("latency", minimize=True)
        assert obj.score(5.0) == 5.0
        assert obj.unscore(5.0) == 5.0

    def test_maximize_negates(self):
        obj = Objective("throughput", minimize=False)
        assert obj.score(5.0) == -5.0
        assert obj.unscore(-5.0) == 5.0

    def test_roundtrip(self):
        for minimize in (True, False):
            obj = Objective("m", minimize=minimize)
            assert obj.unscore(obj.score(3.7)) == 3.7


class TestHistory:
    def make_opt(self, simple_space, minimize=True):
        return RandomSearchOptimizer(simple_space, Objective("m", minimize=minimize), seed=0)

    def test_best_tracks_direction(self, simple_space):
        opt = self.make_opt(simple_space, minimize=False)
        for v in (1.0, 5.0, 3.0):
            opt.observe(opt.suggest(1)[0], v)
        assert opt.history.best_value() == 5.0

    def test_best_requires_completed(self, simple_space):
        opt = self.make_opt(simple_space)
        with pytest.raises(OptimizerError):
            opt.history.best()

    def test_incumbent_curve_monotone(self, simple_space, rng):
        opt = self.make_opt(simple_space)
        for _ in range(20):
            opt.observe(opt.suggest(1)[0], float(rng.random()))
        curve = opt.history.incumbent_curve()
        assert len(curve) == 20
        assert np.all(np.diff(curve) <= 1e-12)

    def test_incumbent_curve_nan_before_first_success(self, simple_space):
        opt = self.make_opt(simple_space)
        opt.history.add(Trial(0, simple_space.default_configuration(), TrialStatus.FAILED))
        opt.observe(opt.suggest(1)[0], 2.0)
        curve = opt.history.incumbent_curve()
        assert np.isnan(curve[0]) and curve[1] == 2.0

    def test_scores_canonical(self, simple_space):
        opt = self.make_opt(simple_space, minimize=False)
        opt.observe(opt.suggest(1)[0], 10.0)
        assert opt.history.scores()[0] == -10.0

    def test_total_cost(self, simple_space):
        opt = self.make_opt(simple_space)
        opt.observe(opt.suggest(1)[0], 1.0, cost=3.0)
        opt.observe(opt.suggest(1)[0], 1.0, cost=4.0)
        assert opt.history.total_cost() == 7.0


class TestObserve:
    def test_scalar_metrics_named_after_objective(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("latency"), seed=0)
        trial = opt.observe(opt.suggest(1)[0], 3.0)
        assert trial.metrics == {"latency": 3.0}

    def test_mapping_metrics_kept(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("latency"), seed=0)
        trial = opt.observe(opt.suggest(1)[0], {"latency": 3.0, "cpu": 0.5})
        assert trial.metric("cpu") == 0.5

    def test_missing_objective_metric_rejected(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("latency"), seed=0)
        with pytest.raises(OptimizerError):
            opt.observe(opt.suggest(1)[0], {"other": 1.0})

    def test_trial_ids_increment(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, seed=0)
        t0 = opt.observe(opt.suggest(1)[0], 1.0)
        t1 = opt.observe(opt.suggest(1)[0], 1.0)
        assert (t0.trial_id, t1.trial_id) == (0, 1)

    def test_suggest_n_validates(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, seed=0)
        with pytest.raises(OptimizerError):
            opt.suggest(0)

    def test_context_recorded(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, seed=0)
        trial = opt.observe(opt.suggest(1)[0], 1.0, context={"workload": "ycsb-a"})
        assert trial.context["workload"] == "ycsb-a"


class TestFailureImputation:
    def test_crash_imputes_worse_than_worst(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("latency"), seed=0)
        opt.observe(opt.suggest(1)[0], 10.0)
        opt.observe(opt.suggest(1)[0], 50.0)
        failed = opt.observe_failure(opt.suggest(1)[0])
        assert failed.status is TrialStatus.FAILED
        assert failed.metric("latency") > 50.0 * 1.9  # ~2x worst

    def test_crash_imputation_maximize(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("tput", minimize=False), seed=0)
        opt.observe(opt.suggest(1)[0], 100.0)
        failed = opt.observe_failure(opt.suggest(1)[0])
        # Imputed throughput must be far below anything observed.
        assert failed.metric("tput") < 100.0

    def test_crash_with_no_history_uses_sentinel(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("latency"), seed=0)
        failed = opt.observe_failure(opt.suggest(1)[0])
        assert failed.metric("latency") >= 1e9

    def test_failed_not_in_completed(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, seed=0)
        opt.observe_failure(opt.suggest(1)[0])
        assert len(opt.history.completed()) == 0
        assert len(opt.history.failed()) == 1

    def test_best_ignores_failures(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("latency"), seed=0)
        opt.observe(opt.suggest(1)[0], 10.0)
        opt.observe_failure(opt.suggest(1)[0])
        assert opt.history.best_value() == 10.0


class TestWarmStart:
    def test_transfers_trials(self, simple_space):
        src = RandomSearchOptimizer(simple_space, Objective("m"), seed=0)
        for v in (3.0, 1.0, 2.0):
            src.observe(src.suggest(1)[0], v)
        dst = RandomSearchOptimizer(simple_space, Objective("m"), seed=1)
        assert dst.warm_start(src.history.trials) == 3
        assert dst.history.best_value() == 1.0

    def test_transfers_across_subspace(self, simple_space):
        src = RandomSearchOptimizer(simple_space, Objective("m"), seed=0)
        src.observe(src.suggest(1)[0], 1.0)
        sub = simple_space.subspace(["x", "y"])
        dst = RandomSearchOptimizer(sub, Objective("m"), seed=1)
        assert dst.warm_start(src.history.trials) == 1


class TestMultiObjectiveGuard:
    def test_single_objective_optimizer_rejects_two(self, simple_space):
        with pytest.raises(OptimizerError):
            RandomSearchOptimizer(
                simple_space, [Objective("a"), Objective("b")], seed=0
            )
