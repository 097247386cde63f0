"""Unit tests for the tuning session loop."""

import pytest

from repro.core import Objective, SessionManager, StopWhenReached, TrialReport, TrialStatus, TuningSession
from repro.core.stores import MemoryTrialStore
from repro.exceptions import OptimizerError, SystemCrashError, TrialAbortedError
from repro.optimizers import RandomSearchOptimizer

from .conftest import quadratic_evaluator


class TestBudgets:
    def test_trial_budget(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, seed=0)
        res = TuningSession(opt, quadratic_evaluator(), max_trials=17).run()
        assert res.n_trials == 17

    def test_cost_budget(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, seed=0)

        def pricey(config):
            return 1.0, 10.0

        res = TuningSession(opt, pricey, max_trials=100, max_cost=35.0).run()
        assert res.n_trials == 4  # stops once >= 35 spent

    def test_cost_budget_ends_an_ask_tell_session(self, simple_space):
        """One budget rule for ask, is_complete, run and the stored status:
        eight tells of cost 4 used to run past ``max_cost=10`` unnoticed."""
        manager = SessionManager(MemoryTrialStore())
        session = manager.create(simple_space, optimizer="random", seed=0, max_trials=50, max_cost=10.0,
                                 session_id="pricey")
        for _ in range(3):
            assert not session.is_complete and not manager.status("pricey")["complete"]
            (sugg,) = session.ask()
            session.tell(TrialReport(config=sugg.config, metrics={"score": 1.0}, cost=4.0, ask_id=sugg.ask_id))
        assert session.is_complete and manager.status("pricey")["complete"]
        with pytest.raises(OptimizerError, match=r"is complete \(50 trials, cost 10\)"):
            session.ask()
        session.evaluator = lambda config: (1.0, 4.0)
        assert session.run().n_trials == 3  # run() applies the same rule

    def test_in_flight_budget_counts_outstanding_trials(self, simple_space):
        from repro.execution import SimulatedClockExecutor

        calls = {"n": 0}

        def pricey(config):
            calls["n"] += 1
            return 1.0, 10.0

        opt = RandomSearchOptimizer(simple_space, seed=0)
        res = TuningSession(opt, pricey, max_trials=6, executor=SimulatedClockExecutor(4)).run()
        assert res.n_trials == calls["n"] == 6

    def test_batch_size(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, seed=0)
        res = TuningSession(opt, quadratic_evaluator(), max_trials=10, batch_size=4).run()
        assert res.n_trials == 10  # final partial batch trimmed

    def test_validation(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, seed=0)
        with pytest.raises(OptimizerError):
            TuningSession(opt, quadratic_evaluator(), max_trials=0)
        with pytest.raises(OptimizerError):
            TuningSession(opt, quadratic_evaluator(), max_trials=5, batch_size=0)


class TestPendingAsks:
    def test_untold_asks_are_bounded_by_the_remaining_budget(self, simple_space):
        manager = SessionManager(MemoryTrialStore())
        session = manager.create(simple_space, optimizer="random", seed=0, max_trials=10, session_id="untold")
        # Asks whose responses never reached a client: a deadline, a dropped
        # connection, a client that retries its ask.
        asks = [session.ask()[0] for _ in range(500)]
        assert len(session._pending_asks) <= 10
        evicted, kept = asks[0], asks[-1]
        for sugg in (evicted, kept):
            trial, duplicate = session.tell(
                TrialReport(config=sugg.config, metrics={"score": 1.0}, ask_id=sugg.ask_id)
            )
            assert not duplicate and trial.config.as_dict() == sugg.config
        # The evicted ask was told through the unknown-ask path, from its values.
        records = manager.store.load_trials("untold")
        assert [r["provenance"]["ask"] for r in records] == [None, {"call": 499, "n": 1, "observed": 0, "i": 0}]
        report = manager.replay_session("untold")
        assert report.ok and report.divergence is None, report.format()


class TestEvaluatorShapes:
    def test_plain_float(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("score"), seed=0)
        res = TuningSession(opt, lambda c: 2.5, max_trials=3).run()
        assert res.best_value == 2.5
        assert res.history.trials[0].cost == 1.0  # default cost

    def test_metrics_mapping(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        res = TuningSession(opt, lambda c: {"lat": 1.0, "cpu": 0.4}, max_trials=2).run()
        assert res.history.trials[0].metric("cpu") == 0.4

    def test_tuple_with_cost(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, seed=0)
        res = TuningSession(opt, lambda c: (3.0, 7.0), max_trials=2).run()
        assert res.total_cost == 14.0


class TestFailureHandling:
    def test_crash_becomes_failed_trial(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise SystemCrashError("oom")
            return 1.0

        res = TuningSession(opt, flaky, max_trials=9).run()
        assert len(res.history.failed()) == 3
        assert res.n_trials == 9

    def test_abort_without_censored_metrics(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)

        def aborting(config):
            raise TrialAbortedError("cut")

        session = TuningSession(opt, aborting, max_trials=2)
        res = session.run()
        assert all(t.status is TrialStatus.ABORTED for t in res.history.trials)

    def test_abort_with_censored_metrics_counts_as_success(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        calls = {"n": 0}

        def censoring(config):
            calls["n"] += 1
            if calls["n"] == 1:
                return 5.0
            err = TrialAbortedError("cut at bound")
            err.censored_metrics = {"lat": 10.0}
            err.cost = 10.0
            return (_ for _ in ()).throw(err)

        res = TuningSession(opt, censoring, max_trials=3).run()
        assert res.best_value == 5.0
        censored = res.history.trials[1]
        assert censored.ok and censored.metric("lat") == 10.0


class TestCallbacks:
    def test_stop_when_reached(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        values = iter([9.0, 5.0, 1.0, 0.5, 0.4])

        session = TuningSession(
            opt,
            lambda c: next(values),
            max_trials=5,
            callbacks=[StopWhenReached(1.0)],
        )
        res = session.run()
        assert res.n_trials == 3  # stopped after hitting 1.0

    def test_convergence_tracker(self, simple_space):
        from repro.core import ConvergenceTracker

        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        tracker = ConvergenceTracker()
        TuningSession(opt, quadratic_evaluator(), max_trials=8, callbacks=[tracker]).run()
        assert len(tracker.best_so_far) == 8
        assert tracker.cumulative_cost[-1] == 8.0

    def test_trial_hooks_called(self, simple_space):
        from repro.core import Callback

        class Counter(Callback):
            def __init__(self):
                self.starts = self.ends = self.sessions = 0

            def on_trial_start(self, session, i):
                self.starts += 1

            def on_trial_end(self, session, trial):
                self.ends += 1

            def on_session_end(self, session):
                self.sessions += 1

        counter = Counter()
        opt = RandomSearchOptimizer(simple_space, seed=0)
        TuningSession(opt, quadratic_evaluator(), max_trials=5, callbacks=[counter]).run()
        assert counter.starts == 5 and counter.ends == 5 and counter.sessions == 1


class TestResult:
    def test_trials_to_reach(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        values = iter([9.0, 5.0, 2.0, 1.0])
        res = TuningSession(opt, lambda c: next(values), max_trials=4).run()
        assert res.trials_to_reach(5.0) == 2
        assert res.trials_to_reach(1.0) == 4
        assert res.trials_to_reach(0.1) is None

    def test_cost_to_reach(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        values = iter([9.0, 5.0, 2.0])
        res = TuningSession(opt, lambda c: (next(values), 10.0), max_trials=3).run()
        assert res.cost_to_reach(5.0) == 20.0

    def test_summary_string(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        res = TuningSession(opt, lambda c: 1.0, max_trials=2).run()
        assert "min lat" in res.summary()
