"""Unit tests for the parallel runner and projected (LlamaTune) optimizer."""

import numpy as np
import pytest

from repro.core import Objective
from repro.exceptions import OptimizerError, SystemCrashError, TrialAbortedError
from repro.optimizers import (
    BayesianOptimizer,
    ParallelRunner,
    ProjectedOptimizer,
    RandomSearchOptimizer,
)
from repro.space import ConfigurationSpace, FloatParameter
from repro.space.adapters import LlamaTuneAdapter, RandomProjectionAdapter


def space_nd(n=6):
    s = ConfigurationSpace("p", seed=0)
    for i in range(n):
        s.add(FloatParameter(f"x{i}", 0.0, 1.0))
    return s


def timed_evaluator(duration=5.0):
    def evaluate(config):
        value = sum((config[f"x{i}"] - 0.3) ** 2 for i in range(len(config)))
        return value, duration

    return evaluate


class TestParallelRunner:
    def test_serial_wall_clock_is_sum(self):
        opt = RandomSearchOptimizer(space_nd(2), seed=0)
        runner = ParallelRunner(opt, timed_evaluator(5.0), n_workers=4, mode="serial")
        out = runner.run(max_trials=10)
        assert out.wall_clock_s == pytest.approx(50.0)
        assert out.n_workers == 1

    def test_sync_wall_clock_is_batch_max(self):
        opt = RandomSearchOptimizer(space_nd(2), seed=0)
        runner = ParallelRunner(opt, timed_evaluator(5.0), n_workers=4, mode="sync")
        out = runner.run(max_trials=12)
        assert out.wall_clock_s == pytest.approx(15.0)  # 3 batches x 5s

    def test_async_faster_with_heterogeneous_durations(self):
        calls = {"n": 0}

        def vary(config):
            calls["n"] += 1
            return 1.0, 2.0 if calls["n"] % 2 else 10.0

        opt_async = RandomSearchOptimizer(space_nd(2), seed=0)
        out_async = ParallelRunner(opt_async, vary, n_workers=2, mode="async").run(8)
        calls["n"] = 0
        opt_sync = RandomSearchOptimizer(space_nd(2), seed=0)
        out_sync = ParallelRunner(opt_sync, vary, n_workers=2, mode="sync").run(8)
        assert out_async.wall_clock_s <= out_sync.wall_clock_s

    def test_all_trials_recorded(self):
        opt = RandomSearchOptimizer(space_nd(2), seed=0)
        out = ParallelRunner(opt, timed_evaluator(), n_workers=3, mode="async").run(11)
        assert out.result.n_trials == 11

    def test_crashes_recorded_as_failures(self):
        calls = {"n": 0}

        def crashy(config):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise SystemCrashError("boom")
            return 1.0, 1.0

        opt = RandomSearchOptimizer(space_nd(2), seed=0)
        out = ParallelRunner(opt, crashy, n_workers=2, mode="sync").run(8)
        assert len(out.result.history.failed()) == 4

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_censored_abort_is_a_succeeded_trial_at_the_bound(self, mode):
        """Early aborts fold through ``run_evaluation`` like in every other
        loop: a censored bound is information (succeeded, at the cost the
        abort reports), a bare abort an imputed failure holding its worker 1 s."""
        calls = {"n": 0}

        def aborting(config):
            calls["n"] += 1
            if calls["n"] == 2:
                err = TrialAbortedError("slower than the incumbent")
                err.censored_metrics = {"score": 20.0}
                err.cost = 3.0
                raise err
            if calls["n"] == 3:
                raise TrialAbortedError("no bound")
            return 1.0, 5.0

        opt = RandomSearchOptimizer(space_nd(2), seed=0)
        out = ParallelRunner(opt, aborting, n_workers=2, mode=mode).run(4)
        by_outcome = {t.metrics["score"]: t for t in out.result.history if t.ok}
        assert by_outcome[20.0].cost == 3.0
        (aborted,) = out.result.history.failed()
        assert (aborted.status.value, aborted.cost) == ("aborted", 1.0)
        assert out.result.best_value == 1.0

    def test_all_failed_run_still_reports(self):
        def crashy(config):
            raise SystemCrashError("boom")

        opt = RandomSearchOptimizer(space_nd(2), seed=0)
        out = ParallelRunner(opt, crashy, n_workers=2, mode="sync").run(4)
        assert out.result.n_trials == 4 and not out.result.history.completed()

    def test_validation(self):
        opt = RandomSearchOptimizer(space_nd(1), seed=0)
        with pytest.raises(OptimizerError):
            ParallelRunner(opt, timed_evaluator(), n_workers=0)
        with pytest.raises(OptimizerError):
            ParallelRunner(opt, timed_evaluator(), mode="warp")
        with pytest.raises(OptimizerError):
            ParallelRunner(opt, timed_evaluator()).run(0)


class TestProjectedOptimizer:
    def test_suggestions_live_in_target_space(self):
        target = space_nd(8)
        adapter = RandomProjectionAdapter(target, d=3, seed=0)
        popt = ProjectedOptimizer(
            adapter, lambda s: RandomSearchOptimizer(s, seed=0), seed=0
        )
        for cfg in popt.suggest(10):
            assert set(cfg) == set(target.names)

    def test_inner_optimizer_learns(self):
        target = space_nd(8)
        adapter = RandomProjectionAdapter(target, d=3, seed=0)
        popt = ProjectedOptimizer(
            adapter,
            lambda s: BayesianOptimizer(s, n_init=4, seed=0, n_candidates=64),
            objectives=Objective("score"),
            seed=0,
        )
        evaluate = timed_evaluator()
        for _ in range(12):
            cfg = popt.suggest(1)[0]
            popt.observe(cfg, evaluate(cfg)[0])
        assert len(popt.inner.history) == 12
        assert popt.inner.history.best_value() == popt.history.best_value()

    def test_failure_forwarded(self):
        target = space_nd(4)
        adapter = RandomProjectionAdapter(target, d=2, seed=0)
        popt = ProjectedOptimizer(
            adapter, lambda s: RandomSearchOptimizer(s, seed=0), seed=0
        )
        cfg = popt.suggest(1)[0]
        popt.observe_failure(cfg)
        assert len(popt.inner.history.failed()) == 1

    def test_foreign_observation_ignored_by_inner(self):
        target = space_nd(4)
        adapter = RandomProjectionAdapter(target, d=2, seed=0)
        popt = ProjectedOptimizer(
            adapter, lambda s: RandomSearchOptimizer(s, seed=0), seed=0
        )
        popt.observe(target.default_configuration(), 1.0)
        assert len(popt.inner.history) == 0
        assert len(popt.history) == 1

    def test_llamatune_pipeline_end_to_end(self):
        target = space_nd(10)
        adapter = LlamaTuneAdapter(target, d=4, n_buckets=16, seed=0)
        popt = ProjectedOptimizer(
            adapter,
            lambda s: BayesianOptimizer(s, n_init=5, seed=0, n_candidates=64),
            seed=0,
        )
        evaluate = timed_evaluator()
        best = np.inf
        for _ in range(25):
            cfg = popt.suggest(1)[0]
            v, _ = evaluate(cfg)
            best = min(best, v)
            popt.observe(cfg, v)
        # 10-D quadratic with optimum 0.3 everywhere: random samples average
        # ~0.8; the projected optimizer should do clearly better.
        assert best < 0.55
