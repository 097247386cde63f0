"""Executor paths: timeouts, retry/backoff, imputation parity, hook order,
lazy width-bounded dispatch, the simulated clock and the in-flight session mode."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import EvaluationResult, Objective, SessionManager, TrialStatus, coerce_evaluation, run_evaluation
from repro.core.session import TuningSession
from repro.exceptions import ReproError, SystemCrashError, TrialAbortedError
from repro.execution import (
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    SimulatedClockExecutor,
    ThreadedExecutor,
    execute_trial,
)
from repro.optimizers import RandomSearchOptimizer
from repro.resilience import BackoffPolicy

from .conftest import quadratic_evaluator


def _crash_on_even(config):
    """Deterministic config-keyed evaluator (picklable, thread-safe)."""
    if int(config["n"]) % 2 == 0:
        raise SystemCrashError("even n crashes")
    return {"lat": float(config["x"])}, 0.5


def _echo_fidelity(config, fidelity=None):
    """Reports the fidelity it was called at as a metric, and runs for as
    long as that budget (picklable: the process pool calls it)."""
    return {"lat": float(config["x"]), "seen": fidelity}, fidelity


class TestEvaluationContract:
    def test_coerce_float(self):
        ev = coerce_evaluation(2.5)
        assert ev.metrics == 2.5 and ev.cost == 1.0 and ev.ok

    def test_coerce_mapping(self):
        ev = coerce_evaluation({"lat": 1.0, "cpu": 0.4})
        assert ev.metrics == {"lat": 1.0, "cpu": 0.4}

    def test_coerce_tuple(self):
        ev = coerce_evaluation(({"lat": 3.0}, 7.0))
        assert ev.cost == 7.0

    def test_coerce_passthrough(self):
        original = EvaluationResult(metrics={"lat": 1.0}, cost=2.0)
        assert coerce_evaluation(original) is original

    def test_run_evaluation_crash(self, simple_space):
        def crash(config):
            raise SystemCrashError("oom")

        ev = run_evaluation(crash, simple_space.default_configuration())
        assert ev.status is TrialStatus.FAILED
        assert ev.outcome == "crash"
        assert isinstance(ev.exception, SystemCrashError)

    def test_run_evaluation_censored_abort_succeeds(self, simple_space):
        def censoring(config):
            err = TrialAbortedError("cut at bound")
            err.censored_metrics = {"lat": 10.0}
            err.cost = 10.0
            raise err

        ev = run_evaluation(censoring, simple_space.default_configuration())
        assert ev.ok and ev.metrics == {"lat": 10.0} and ev.cost == 10.0
        assert ev.outcome == "censored"

    def test_run_evaluation_plain_abort(self, simple_space):
        def aborting(config):
            raise TrialAbortedError("cut")

        ev = run_evaluation(aborting, simple_space.default_configuration())
        assert ev.status is TrialStatus.ABORTED and ev.outcome == "abort"


class TestRetryBackoff:
    def test_retry_sequencing_and_backoff_delays(self, simple_space):
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise SystemCrashError("transient")
            return 1.0

        slept: list[float] = []
        execution = execute_trial(
            flaky,
            simple_space.default_configuration(),
            retry=RetryPolicy(max_retries=3),
            sleep=slept.append,
        )
        assert execution.result.ok
        assert execution.retries == 2
        assert execution.attempts == ["crash", "crash", "success"]
        # The shared full-jitter curve: the k-th sleep is uniform(0, ceiling(k)).
        assert len(slept) == 2
        assert all(0 <= slept[k] <= BackoffPolicy().ceiling(k) for k in range(2))
        assert execution.backoff_s == sum(slept)

    def test_retries_bounded(self, simple_space):
        def always_crash(config):
            raise SystemCrashError("hard")

        execution = execute_trial(
            always_crash,
            simple_space.default_configuration(),
            retry=RetryPolicy(max_retries=2),
            sleep=lambda s: None,
        )
        assert not execution.result.ok
        assert execution.retries == 2
        assert execution.attempts == ["crash"] * 3

    def test_non_retryable_exception_not_retried(self, simple_space):
        def aborting(config):
            raise TrialAbortedError("cut")

        execution = execute_trial(
            aborting,
            simple_space.default_configuration(),
            retry=RetryPolicy(max_retries=3, retry_on=(SystemCrashError,)),
            sleep=lambda s: None,
        )
        assert execution.retries == 0

    def test_retry_policy_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_retries=-1)


class TestTimeouts:
    @pytest.mark.parametrize("executor_cls", [SerialExecutor, ThreadedExecutor])
    def test_timeout_fires_and_imputes(self, simple_space, executor_cls):
        def slow_or_fast(config):
            if int(config["n"]) > 8:
                time.sleep(5.0)
            return {"lat": 1.0}

        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        kwargs = {"max_workers": 2} if executor_cls is ThreadedExecutor else {}
        with executor_cls(timeout_s=0.1, **kwargs) as executor:
            res = TuningSession(opt, slow_or_fast, max_trials=6, executor=executor).run()
        timed_out = [t for t in res.history if t.context.get("outcome") == "timeout"]
        succeeded = res.history.completed()
        assert timed_out and succeeded  # seed 0 produces both kinds
        for trial in timed_out:
            assert trial.status is TrialStatus.FAILED
            assert "lat" in trial.metrics  # imputed, worse than the real values
            assert trial.metric("lat") > max(t.metric("lat") for t in succeeded)

    def test_timeout_validation(self):
        with pytest.raises(ReproError):
            SerialExecutor(timeout_s=0.0)


class TestImputationParity:
    def test_crash_imputation_matches_historic_in_session_handling(self, simple_space):
        # The same deterministic evaluator through the default (historic)
        # path and through an executor must yield identical histories.
        opt_old = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        res_old = TuningSession(opt_old, _crash_on_even, max_trials=12).run()

        opt_new = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        with ThreadedExecutor(max_workers=1) as executor:
            res_new = TuningSession(opt_new, _crash_on_even, max_trials=12, executor=executor).run()

        assert len(res_old.history.failed()) == len(res_new.history.failed())
        for old, new in zip(res_old.history, res_new.history):
            assert old.status == new.status
            assert old.metrics == pytest.approx(new.metrics)
            assert old.cost == new.cost
        assert res_old.best_value == res_new.best_value


class TestSessionParallel:
    def test_batch_runs_concurrently(self, simple_space):
        def sleepy(config):
            time.sleep(0.05)
            return {"lat": float(config["x"])}, 0.05

        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        t0 = time.perf_counter()
        TuningSession(opt, sleepy, max_trials=8, batch_size=4).run()
        serial_s = time.perf_counter() - t0

        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        with ThreadedExecutor(max_workers=4) as executor:
            t0 = time.perf_counter()
            res = TuningSession(opt, sleepy, max_trials=8, batch_size=4, executor=executor).run()
            parallel_s = time.perf_counter() - t0
        assert res.n_trials == 8
        assert parallel_s < serial_s / 2  # 4 workers: comfortably 2x even with overhead

    def test_callback_hook_ordering_under_batches(self, simple_space):
        from repro.core import Callback

        events: list[tuple] = []

        class Recorder(Callback):
            def on_trial_start(self, session, trial_index):
                events.append(("start", trial_index))

            def on_trial_error(self, session, trial, exc):
                events.append(("error", trial.trial_id, type(exc).__name__))

            def on_trial_end(self, session, trial):
                events.append(("end", trial.trial_id))

            def on_batch_end(self, session, trials):
                events.append(("batch", len(trials)))

            def on_session_end(self, session):
                events.append(("session",))

        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        with ThreadedExecutor(max_workers=4) as executor:
            TuningSession(
                opt, _crash_on_even, max_trials=8, batch_size=4,
                callbacks=[Recorder()], executor=executor,
            ).run()

        kinds = [e[0] for e in events]
        assert kinds.count("start") == kinds.count("end") == 8
        assert kinds.count("batch") == 2 and kinds.count("session") == 1
        assert kinds[-1] == "session"
        # All starts of a batch fire before any of its ends; batch marker last.
        first_batch = kinds[: kinds.index("batch") + 1]
        assert first_batch[:4] == ["start"] * 4
        assert first_batch[-1] == "batch"
        assert first_batch[4:-1] and set(first_batch[4:-1]) <= {"end", "error"}
        # Every error fires immediately before its trial's end.
        for i, event in enumerate(events):
            if event[0] == "error":
                assert event[2] == "SystemCrashError"
                assert events[i + 1] == ("end", event[1])

    def test_default_executor_unchanged_semantics(self, simple_space):
        # No executor argument: same trial counts and budget behavior as ever.
        opt = RandomSearchOptimizer(simple_space, seed=0)
        res = TuningSession(opt, quadratic_evaluator(), max_trials=10, batch_size=4).run()
        assert res.n_trials == 10


class TestLazyDispatch:
    """``map`` draws the next trial (a configuration and its fidelity) only
    when one of its ``width`` slots is free, so a generator can suggest each
    one at that moment."""

    @pytest.mark.parametrize("make", [SerialExecutor, lambda: SimulatedClockExecutor(3),
                                      lambda: ThreadedExecutor(max_workers=3)])
    def test_never_more_than_width_drawn_ahead(self, simple_space, make):
        drawn, done = [], []

        def configs():
            for i in range(7):
                assert len(drawn) - len(done) < executor.width  # a slot is free whenever one is drawn
                drawn.append(i)
                yield simple_space.sample(np.random.default_rng(i)), None

        with make() as executor:
            for execution in executor.map(lambda c: {"lat": 1.0}, configs()):
                done.append(execution.index)
        assert sorted(done) == list(range(7))

    def test_closing_early_skips_the_rest(self, simple_space):
        drawn = []

        def configs():
            for i in range(10):
                drawn.append(i)
                yield simple_space.sample(np.random.default_rng(i)), None

        results = SimulatedClockExecutor(2).map(lambda c: {"lat": 1.0}, configs())
        next(results)
        results.close()
        assert drawn == [0, 1]


class TestSimulatedClock:
    def test_completions_in_finish_order_ties_by_start(self, simple_space):
        durations = iter([4.0, 1.0, 4.0, 2.0])
        executor = SimulatedClockExecutor(2)
        configs = [(simple_space.sample(np.random.default_rng(i)), None) for i in range(4)]
        out = [(e.index, executor.wall_clock_s) for e in executor.map(lambda c: (1.0, next(durations)), configs)]
        # 0 (4 s) and 1 (1 s) start at 0; 2 starts at 1, ends at 5; 3 starts at 4, ends at 6.
        assert out == [(1, 1.0), (0, 4.0), (2, 5.0), (3, 6.0)]
        ties = SimulatedClockExecutor(3)
        assert [e.index for e in ties.map(lambda c: (1.0, 2.0), configs)] == [0, 1, 2, 3]

    def test_wall_clock_runs_on_across_batches(self, simple_space):
        executor = SimulatedClockExecutor(4)
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        TuningSession(opt, lambda c: (1.0, 5.0), max_trials=10, batch_size=4, executor=executor).run()
        assert executor.wall_clock_s == pytest.approx(15.0)  # batches of 4, 4, 2

    def test_in_flight_session_observes_in_completion_order(self, simple_space):
        from repro.core import Callback

        events: list[tuple] = []

        class Recorder(Callback):
            def on_trial_start(self, session, trial_index):
                events.append(("start", trial_index))

            def on_trial_end(self, session, trial):
                events.append(("end", trial.trial_id))

            def on_batch_end(self, session, trials):
                events.append(("batch", len(trials)))

        calls = {"n": 0}

        def vary(config):
            calls["n"] += 1
            return {"lat": float(config["x"])}, [3.0, 1.0, 2.0][calls["n"] % 3]

        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        session = TuningSession(opt, vary, max_trials=7, executor=SimulatedClockExecutor(3), callbacks=[Recorder()])
        session.run()
        assert calls["n"] == 7  # the outstanding trials count: never launched past the budget
        kinds = [e[0] for e in events]
        assert kinds[:3] == ["start"] * 3  # three in flight before the first completes
        assert kinds.count("start") == kinds.count("end") == kinds.count("batch") == 7
        # Each completion is told before the next suggestion goes out.
        assert kinds[3:6] == ["end", "batch", "start"]

    def test_in_flight_needs_a_wider_executor_and_batch_one(self, simple_space):
        calls = {"n": 0}

        def count(config):
            calls["n"] += 1
            return 1.0, 1.0

        opt = RandomSearchOptimizer(simple_space, seed=0)
        executor = SimulatedClockExecutor(1)
        TuningSession(opt, count, max_trials=5, executor=executor).run()
        assert executor.wall_clock_s == pytest.approx(5.0) and calls["n"] == 5


class TestProcessExecutor:
    def test_process_pool_runs_trials(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        with ProcessExecutor(max_workers=2) as executor:
            res = TuningSession(opt, _crash_on_even, max_trials=4, batch_size=2, executor=executor).run()
        assert res.n_trials == 4
        assert res.history.completed() and all("lat" in t.metrics for t in res.history)


@pytest.mark.parametrize("make", [SerialExecutor, lambda: SimulatedClockExecutor(4),
                                  lambda: ThreadedExecutor(max_workers=2), lambda: ProcessExecutor(max_workers=2)],
                         ids=["serial", "simulated-clock", "threaded", "process"])
def test_each_evaluation_receives_its_own_suggestions_fidelity(simple_space, make):
    """Hyperband proposes a rung budget per suggestion; on every executor the
    evaluation of a suggestion is called at that budget, whatever order the
    trials complete in, and the journal records the trial at it."""
    manager = SessionManager()
    with make() as executor:
        session = manager.create(
            simple_space, optimizer="hyperband", objectives=Objective("lat"), max_trials=24, seed=0,
            evaluator=_echo_fidelity, executor=executor, lint=False,
            optimizer_options={"max_budget": 9.0, "min_budget": 1.0},
        )
        rungs, on_observe = [], session.optimizer._on_observe

        def spy(trial, memo):
            rungs.append(memo[0])
            on_observe(trial, memo)

        session.optimizer._on_observe = spy
        session.run()
    history = session.optimizer.history
    assert len(history) == 24 and {1.0, 3.0} <= set(rungs)
    assert [t.metrics["seen"] for t in history] == rungs == [t.fidelity for t in history]
    records = manager.store.load_trials(session.session_id)
    assert [r["fidelity"] for r in records] == rungs
