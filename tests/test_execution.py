"""Executor paths: timeouts, retry/backoff, imputation parity, hook order."""

from __future__ import annotations

import time

import pytest

from repro.core import EvaluationResult, Objective, TrialStatus, coerce_evaluation, run_evaluation
from repro.core.session import TuningSession
from repro.exceptions import ReproError, SystemCrashError, TrialAbortedError
from repro.execution import (
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
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


class TestProcessExecutor:
    def test_process_pool_runs_trials(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        with ProcessExecutor(max_workers=2) as executor:
            res = TuningSession(opt, _crash_on_even, max_trials=4, batch_size=2, executor=executor).run()
        assert res.n_trials == 4
        assert res.history.completed() and all("lat" in t.metrics for t in res.history)
