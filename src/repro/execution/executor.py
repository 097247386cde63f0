"""Trial executors: serial, thread-pool, and process-pool backends.

The tutorial's scheduler slide describes *parallel suggestion* — "suggest k
points, batch execute trials" — and TUNA-style noisy-cloud tuning demands
running many instrumented trials concurrently. This module is the execution
substrate: a :class:`TrialExecutor` takes a batch of configurations plus an
evaluator and yields :class:`TrialExecution` records **as trials complete**,
handling per-trial timeouts, bounded retry with jittered backoff, and the
crash/abort → status folding (via :func:`repro.core.evaluation.run_evaluation`)
that previously lived inline in ``TuningSession``.

Backends:

* :class:`SerialExecutor` — evaluates in the caller's thread, lazily; the
  zero-dependency default with semantics identical to the historic loop.
* :class:`ThreadedExecutor` — a ``concurrent.futures.ThreadPoolExecutor``
  pool; right for evaluators that block on I/O, subprocesses, or sleeps
  (i.e. real benchmarks).
* :class:`ProcessExecutor` — a ``ProcessPoolExecutor`` pool for CPU-bound
  evaluators; the evaluator and configurations must be picklable.
* :class:`SimulatedClockExecutor` — ``k`` simulated workers on a virtual
  clock: each trial is evaluated when it starts and completes ``cost``
  seconds later, so a campaign's wall time with ``k`` benchmark machines is
  measured without any real concurrency (the tutorial's parallel slide).

Every backend consumes its configurations lazily and keeps at most
:attr:`TrialExecutor.width` trials in flight, so a session can hand it a
generator that suggests each configuration only when a worker frees up.

Timeouts run the evaluation on a daemon thread and abandon it at the
deadline — the trial is recorded as ``FAILED`` with ``outcome="timeout"``
and a :class:`TimeoutError` exception, and the optimizer imputes it like a
crash. (Python threads cannot be killed; the abandoned evaluation may keep
running in the background until it returns.)

Observability: every execution is decomposed in time — **queue wait**
(submit → first attempt; pool backpressure), **attempts** (each evaluation
try, individually timed), and **backoff sleeps** between retries — instead
of one folded wall-clock number. When a telemetry trace is active
(:mod:`repro.telemetry.spans`), the decomposition is also emitted as
nested ``executor.run`` / ``executor.attempt`` / ``executor.backoff``
spans attached to the right trial, and retries/timeouts become structured
events. :class:`ThreadedExecutor` copies the submitting context into each
worker task so spans land on the correct trial even though pool threads
are reused; process pools cannot carry the context across the pickle
boundary, so child processes degrade to the flat numbers (still recorded,
via :class:`TrialExecution`).
"""

from __future__ import annotations

import contextvars
import heapq
import threading
import time
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent import futures as _futures
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..core.evaluation import EvaluationResult, run_evaluation
from ..core.optimizer import TrialStatus
from ..exceptions import ReproError, SystemCrashError
from ..resilience import BackoffPolicy
from ..telemetry.spans import emit_event, span, trial_scope
from ..space import Configuration

__all__ = [
    "RetryPolicy",
    "TrialExecution",
    "TrialExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "SimulatedClockExecutor",
    "execute_trial",
]

Evaluator = Callable[[Configuration], Any]


@dataclass(frozen=True)
class RetryPolicy:
    """*When* to retry a flaky evaluation (how long to wait is not its job).

    A trial is retried when its evaluation ended with an exception whose
    type matches ``retry_on`` (timeouts surface as :class:`TimeoutError`)
    and fewer than ``max_retries`` retries have been spent. The sleep before
    the k-th retry comes from the repository's one backoff curve,
    :meth:`repro.resilience.BackoffPolicy.delay`.
    """

    max_retries: int = 2
    retry_on: tuple[type[BaseException], ...] = (SystemCrashError, TimeoutError)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {self.max_retries}")

    def should_retry(self, result: EvaluationResult, retries_spent: int) -> bool:
        if result.ok or retries_spent >= self.max_retries:
            return False
        return result.exception is not None and isinstance(result.exception, self.retry_on)


@dataclass
class TrialExecution:
    """One executed trial: the result plus execution-side instrumentation.

    ``wall_clock_s`` is the full attempt-loop wall-clock (attempts plus
    backoff sleeps, *excluding* queue wait) — the historic number. The
    decomposition lives beside it: ``queue_s`` (submit → execution start),
    ``attempt_s`` (per-attempt evaluation durations, parallel to
    ``attempts``), and ``backoff_s`` (total retry sleep).
    """

    index: int  # position within the dispatched batch
    config: Configuration
    result: EvaluationResult
    retries: int = 0
    wall_clock_s: float = 0.0
    attempts: list[str] = field(default_factory=list)  # outcome tag per attempt
    queue_s: float = 0.0
    attempt_s: list[float] = field(default_factory=list)  # duration per attempt
    backoff_s: float = 0.0
    span_ref: Any = None  # telemetry TrialRef; bound to the trial id on observe


def _call_with_timeout(evaluator: Evaluator, config: Configuration, timeout_s: float | None) -> EvaluationResult:
    """One evaluation attempt, abandoned at ``timeout_s`` if it overruns."""
    if timeout_s is None:
        return run_evaluation(evaluator, config)
    box: dict[str, EvaluationResult] = {}
    # The watchdog thread would otherwise start from a bare context: copy
    # ours so evaluator-side spans still attach to the active trace/trial.
    ctx = contextvars.copy_context()

    def target() -> None:
        box["result"] = ctx.run(run_evaluation, evaluator, config)

    worker = threading.Thread(target=target, daemon=True, name="repro-trial-eval")
    worker.start()
    worker.join(timeout_s)
    if worker.is_alive() or "result" not in box:
        return EvaluationResult(
            metrics=None,
            cost=float(timeout_s),
            status=TrialStatus.FAILED,
            metadata={"outcome": "timeout", "error": f"trial exceeded timeout of {timeout_s:g}s"},
            exception=TimeoutError(f"trial exceeded timeout of {timeout_s:g}s"),
        )
    return box["result"]


def execute_trial(
    evaluator: Evaluator,
    config: Configuration,
    index: int = 0,
    timeout_s: float | None = None,
    retry: RetryPolicy | None = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    submitted_s: float | None = None,
) -> TrialExecution:
    """Run one trial to completion: attempt, retry with backoff, instrument.

    ``submitted_s`` (same clock) marks when the trial was handed to the
    executor; the gap to execution start is reported as ``queue_s``.
    Module-level (not a method) so :class:`ProcessExecutor` can pickle it.
    """
    start = clock()
    queue_s = max(0.0, start - submitted_s) if submitted_s is not None else 0.0
    retries = 0
    attempts: list[str] = []
    attempt_s: list[float] = []
    backoff_total = 0.0
    with trial_scope() as ref:
        with span("executor.run", index=index) as op:
            if op is not None and queue_s:
                op.set(queue_s=queue_s)
            while True:
                t_attempt = clock()
                with span("executor.attempt", attempt=len(attempts)) as attempt_op:
                    result = _call_with_timeout(evaluator, config, timeout_s)
                    if attempt_op is not None:
                        attempt_op.set(outcome=result.outcome)
                attempt_s.append(clock() - t_attempt)
                attempts.append(result.outcome)
                if result.outcome == "timeout":
                    emit_event(
                        "executor.timeout", severity="warning",
                        message=f"attempt {len(attempts) - 1} exceeded {timeout_s:g}s",
                        index=index, attempt=len(attempts) - 1, timeout_s=timeout_s,
                    )
                if retry is None or not retry.should_retry(result, retries):
                    break
                delay = BackoffPolicy().delay(retries)
                emit_event(
                    "executor.retry", severity="warning",
                    message=f"retrying after {result.outcome} (attempt {len(attempts) - 1})",
                    index=index, attempt=len(attempts) - 1, outcome=result.outcome, backoff_s=delay,
                )
                with span("executor.backoff", delay_s=delay):
                    sleep(delay)
                backoff_total += delay
                retries += 1
    if retries:
        result.metadata.setdefault("retries", retries)
    return TrialExecution(
        index=index,
        config=config,
        result=result,
        retries=retries,
        wall_clock_s=clock() - start,
        attempts=attempts,
        queue_s=queue_s,
        attempt_s=attempt_s,
        backoff_s=backoff_total,
        span_ref=ref,
    )


class TrialExecutor(ABC):
    """Executes trials; yields results as they complete.

    Parameters
    ----------
    timeout_s:
        Per-trial wall-clock deadline; overruns become ``FAILED`` trials
        with ``outcome="timeout"`` (imputed by the optimizer like crashes).
    retry:
        Optional :class:`RetryPolicy`. ``None`` means no retries — exactly
        the historic in-session behavior.
    """

    #: Trials in flight at once. ``map`` draws the next configuration only
    #: when one of its ``width`` slots is free, so breaking out of it skips
    #: the configurations not yet drawn.
    width = 1

    def __init__(self, timeout_s: float | None = None, retry: RetryPolicy | None = None) -> None:
        if timeout_s is not None and timeout_s <= 0:
            raise ReproError(f"timeout_s must be > 0, got {timeout_s}")
        self.timeout_s = timeout_s
        self.retry = retry

    @abstractmethod
    def map(self, evaluator: Evaluator, configs: Iterable[Configuration]) -> Iterator[TrialExecution]:
        """Yield a :class:`TrialExecution` per config, in completion order;
        ``index`` is the config's position in ``configs``."""

    def shutdown(self) -> None:
        """Release pooled resources (no-op for serial)."""

    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


class SerialExecutor(TrialExecutor):
    """Evaluate trials one at a time in the caller's thread."""

    def map(self, evaluator: Evaluator, configs: Iterable[Configuration]) -> Iterator[TrialExecution]:
        for i, config in enumerate(configs):
            yield execute_trial(
                evaluator, config, i, self.timeout_s, self.retry, submitted_s=time.monotonic()
            )


class SimulatedClockExecutor(TrialExecutor):
    """``workers`` simulated benchmark machines on a virtual clock.

    Each trial is evaluated in the caller's thread the moment it starts (at
    the current virtual time) and completes ``result.cost`` virtual seconds
    later; completions are yielded in finish order, ties broken by start
    order. :attr:`wall_clock_s` is the virtual time of the last completion
    and runs on across ``map`` calls, so one executor per campaign measures
    its whole wall time: a barrier batch takes as long as its slowest trial,
    and trials kept in flight refill each machine as it frees up.
    """

    def __init__(self, workers: int = 4) -> None:
        super().__init__()
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.width = int(workers)
        self.wall_clock_s = 0.0

    def map(self, evaluator: Evaluator, configs: Iterable[Configuration]) -> Iterator[TrialExecution]:
        pending = iter(configs)
        running: list[tuple[float, int, TrialExecution]] = []  # (finish, start order, execution)
        index = 0
        while True:
            while len(running) < self.width:
                config = next(pending, None)
                if config is None:
                    break
                execution = execute_trial(evaluator, config, index)
                heapq.heappush(running, (self.wall_clock_s + execution.result.cost, index, execution))
                index += 1
            if not running:
                return
            self.wall_clock_s, _, execution = heapq.heappop(running)
            yield execution


class _PoolExecutor(TrialExecutor):
    """Shared machinery for the concurrent.futures-backed backends."""

    def __init__(
        self,
        max_workers: int = 4,
        timeout_s: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(timeout_s=timeout_s, retry=retry)
        if max_workers < 1:
            raise ReproError(f"max_workers must be >= 1, got {max_workers}")
        self.width = int(max_workers)
        self._pool: _futures.Executor | None = None

    @abstractmethod
    def _make_pool(self) -> _futures.Executor:
        """Create the backing concurrent.futures executor."""

    def _ensure_pool(self) -> _futures.Executor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def _submit(self, pool: _futures.Executor, *args: Any) -> Future:
        return pool.submit(execute_trial, *args)

    def map(self, evaluator: Evaluator, configs: Iterable[Configuration]) -> Iterator[TrialExecution]:
        pool = self._ensure_pool()
        # A batch handed over whole has queued since the call; a generator's
        # configuration only since it was drawn.
        handed_s = time.monotonic() if isinstance(configs, Sequence) else None
        pending_configs = enumerate(configs)
        running: set[Future] = set()
        try:
            while True:
                while len(running) < self.width:
                    i, config = next(pending_configs, (None, None))
                    if config is None:
                        break
                    submitted_s = handed_s if handed_s is not None else time.monotonic()
                    running.add(self._submit(
                        pool, evaluator, config, i, self.timeout_s, self.retry, time.sleep, time.monotonic, submitted_s
                    ))
                if not running:
                    return
                done, running = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    yield future.result()
        finally:
            for future in running:
                future.cancel()

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


class ThreadedExecutor(_PoolExecutor):
    """Thread-pool backend — concurrent trials that block on I/O or sleep.

    Python threads share the GIL, so the speedup is real only when the
    evaluator releases it (syscalls, subprocess benchmarks, sleeps, numpy) —
    which is exactly what system benchmarks do.
    """

    def _submit(self, pool: _futures.Executor, *args: Any) -> Future:
        # Propagate the submitter's context (active telemetry trace, trial
        # scope) into the reused worker thread, so nested spans opened while
        # evaluating attach to the right trial.
        return pool.submit(contextvars.copy_context().run, execute_trial, *args)

    def _make_pool(self) -> _futures.Executor:
        return _futures.ThreadPoolExecutor(
            max_workers=self.width, thread_name_prefix="repro-trial"
        )


class ProcessExecutor(_PoolExecutor):
    """Process-pool backend for CPU-bound evaluators.

    The evaluator and configurations cross a pickle boundary: closures and
    lambdas won't work — use module-level callables or callable objects.
    Telemetry context does not cross it either: child processes contribute
    the flat :class:`TrialExecution` numbers but no nested spans.
    """

    def _make_pool(self) -> _futures.Executor:
        return _futures.ProcessPoolExecutor(max_workers=self.width)
