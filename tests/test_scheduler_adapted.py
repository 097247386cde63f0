"""Unit tests for simulated parallel runs and the projected (LlamaTune) optimizer."""

import numpy as np
import pytest

from repro.core import Objective, TuningSession
from repro.exceptions import OptimizerError, ReproError, SystemCrashError, TrialAbortedError
from repro.execution import SimulatedClockExecutor
from repro.optimizers import (
    BayesianOptimizer,
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


def simulated_run(evaluate, workers, batch_size, max_trials, seed=0, space=None):
    """A session on ``workers`` simulated machines: ``(result, wall clock)``."""
    opt = RandomSearchOptimizer(space or space_nd(2), seed=seed)
    executor = SimulatedClockExecutor(workers)
    result = TuningSession(opt, evaluate, max_trials=max_trials, batch_size=batch_size, executor=executor).run()
    return result, executor.wall_clock_s


class TestParallelRunner:
    """Parallel runs are ``TuningSession`` runs on a :class:`SimulatedClockExecutor`:
    one machine is serial, ``batch_size=k`` synchronous, ``batch_size=1`` on k
    machines asynchronous (k trials in flight)."""

    def test_serial_wall_clock_is_sum(self):
        result, wall = simulated_run(timed_evaluator(5.0), workers=1, batch_size=1, max_trials=10)
        assert wall == pytest.approx(50.0)
        assert result.n_trials == 10

    def test_sync_wall_clock_is_batch_max(self):
        calls = {"n": 0}

        def vary(config):
            calls["n"] += 1
            return 1.0, float(calls["n"] % 4 + 1)  # 2, 3, 4, 1 s within each batch

        _, wall = simulated_run(vary, workers=4, batch_size=4, max_trials=12)
        assert wall == pytest.approx(12.0)  # 3 batches x their 4 s maximum

    def test_async_faster_with_heterogeneous_durations(self):
        calls = {"n": 0}

        def vary(config):
            calls["n"] += 1
            return 1.0, 2.0 if calls["n"] % 2 else 10.0

        _, async_wall = simulated_run(vary, workers=2, batch_size=1, max_trials=8)
        calls["n"] = 0
        _, sync_wall = simulated_run(vary, workers=2, batch_size=2, max_trials=8)
        assert async_wall < sync_wall

    def test_all_trials_recorded(self):
        result, _ = simulated_run(timed_evaluator(), workers=3, batch_size=1, max_trials=11)
        assert result.n_trials == 11

    def test_crashes_recorded_as_failures(self):
        calls = {"n": 0}

        def crashy(config):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise SystemCrashError("boom")
            return 1.0, 1.0

        result, _ = simulated_run(crashy, workers=2, batch_size=2, max_trials=8)
        assert len(result.history.failed()) == 4

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_censored_abort_is_a_succeeded_trial_at_the_bound(self, mode):
        """Early aborts fold through ``run_evaluation`` like in every other
        loop: a censored bound is information (succeeded, at the cost the
        abort reports), a bare abort an imputed failure holding its machine 1 s."""
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

        result, _ = simulated_run(aborting, workers=2, batch_size=2 if mode == "sync" else 1, max_trials=4)
        by_outcome = {t.metrics["score"]: t for t in result.history if t.ok}
        assert by_outcome[20.0].cost == 3.0
        (aborted,) = result.history.failed()
        assert (aborted.status.value, aborted.cost) == ("aborted", 1.0)
        assert result.best_value == 1.0

    def test_all_failed_run_still_reports(self):
        def crashy(config):
            raise SystemCrashError("boom")

        result, wall = simulated_run(crashy, workers=2, batch_size=1, max_trials=4)
        assert result.n_trials == 4 and not result.history.completed()
        assert wall == pytest.approx(2.0)  # four 1 s crashes on two machines

    def test_validation(self):
        with pytest.raises(ReproError):
            SimulatedClockExecutor(0)
        with pytest.raises(OptimizerError):
            simulated_run(timed_evaluator(), workers=2, batch_size=0, max_trials=4)
        with pytest.raises(OptimizerError):
            simulated_run(timed_evaluator(), workers=2, batch_size=1, max_trials=0)


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
