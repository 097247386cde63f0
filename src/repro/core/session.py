"""The offline tuning loop (scheduler of the tutorial's architecture slide).

``TuningSession`` wires an :class:`~repro.core.optimizer.Optimizer` to an
*evaluator* — any callable taking a configuration and returning metrics,
called with a ``fidelity=`` keyword too when the optimizer proposes one
for the trial — and runs the suggest → dispatch → observe-as-completed
loop under trial and cost budgets. Trial execution is delegated to a
:class:`~repro.execution.TrialExecutor`: the default serial executor keeps
the historic in-process semantics. On a wider executor the loop runs the
tutorial's two parallel modes: ``batch_size > 1`` waits for each batch
(synchronous), ``batch_size == 1`` keeps the executor's width of trials in
flight (asynchronous); :class:`~repro.execution.SimulatedClockExecutor`
runs either on a virtual clock. Crashes (:class:`~repro.exceptions.SystemCrashError`) and
early aborts (:class:`~repro.exceptions.TrialAbortedError`) become failed
trials with imputed scores rather than terminating the run; that folding
lives in :func:`repro.core.evaluation.run_evaluation`, shared by every
executor backend, and the imputing observe in
:func:`repro.core.evaluation.observe_evaluation`.

Two ways to drive a session:

* :meth:`TuningSession.run` — the closed loop: the session evaluates its
  own suggestions until the budget is spent.
* :meth:`TuningSession.ask` / :meth:`TuningSession.tell` — the open loop:
  the caller evaluates configurations elsewhere and reports results back
  as :class:`~repro.core.codec.TrialReport` payloads. This is the same
  surface the HTTP service exposes, with the same dataclasses; reports
  carrying a ``report_id`` are idempotent.

Both loops enter each trial through one method (``_enter``: observe,
journal, callbacks), so when a :class:`~repro.core.journal.TrialStore` is
attached (normally by a :class:`~repro.core.manager.SessionManager`) every
observed trial is durably journaled before the tell or batch step returns,
which is what makes sessions resumable after a crash.
"""

from __future__ import annotations

import time
from contextlib import closing, nullcontext
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

from ..exceptions import OptimizerError
from ..space import Configuration
from ..telemetry.spans import current_trace_id, emit_event, span, trial_scope
from .callbacks import Callback
from .codec import SuggestRequest, Suggestion, TrialReport, config_from_values, encode_trial, json_safe
from .evaluation import EvaluationResult, Evaluator, observe_evaluation
from .journal import StorageError, TransientStorageError
from .optimizer import Optimizer, Trial, TrialStatus
from .result import TuningResult

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from ..execution import TrialExecutor
    from .journal import TrialStore

__all__ = ["TuningSession"]


def budget_spent(n_trials: int, cost: float, max_trials: int, max_cost: float | None) -> bool:
    """The one budget rule: a session is complete once it holds ``max_trials``
    trials or its trials cost ``max_cost`` in total. ``ask``, ``is_complete``,
    ``run`` and :meth:`SessionManager.status` all apply it."""
    return n_trials >= max_trials or (max_cost is not None and cost >= max_cost)


class TuningSession:
    """Drives one offline tuning run.

    Parameters
    ----------
    optimizer:
        Any ask/tell optimizer.
    evaluator:
        An :data:`~repro.core.evaluation.Evaluator` (the contract is
        :mod:`repro.core.evaluation`'s), or ``None`` for an ask/tell-only
        session (:meth:`run` then raises).
    max_trials:
        Trial budget, at most the optimizer's
        :attr:`~repro.core.optimizer.Optimizer.max_suggestions`.
    max_cost:
        Optional cumulative-cost budget (e.g. total benchmark seconds).
    batch_size:
        Suggestions requested per iteration. With a parallel executor the
        batch runs concurrently and is observed in completion order; at 1,
        a parallel executor keeps its width of trials in flight instead.
    callbacks:
        Observers; see :mod:`repro.core.callbacks` for the hook ordering.
    executor:
        A :class:`~repro.execution.TrialExecutor`; defaults to the serial
        in-thread executor (historic behavior). The session does not own
        the executor — reuse it across sessions and ``shutdown()`` it when
        done (or use it as a context manager).
    store, session_id:
        Optional durable :class:`~repro.core.journal.TrialStore` to journal
        every observed trial into (under ``session_id``). Normally wired by
        a :class:`~repro.core.manager.SessionManager` rather than directly.

    An ask's ``ask_id`` is the optimizer's number for its suggestion: each
    tell, in-flight completion and replayed record names its suggestion by number.
    """

    #: Spilled records beyond which a store failure propagates: a backpressure
    #: threshold, not a drop policy — records are never discarded; past the
    #: limit callers stop feeding an unwritable store.
    spill_limit = 256

    def __init__(
        self,
        optimizer: Optimizer,
        evaluator: Evaluator | None,
        max_trials: int,
        max_cost: float | None = None,
        batch_size: int = 1,
        callbacks: Sequence[Callback] = (),
        executor: "TrialExecutor | None" = None,
        store: "TrialStore | None" = None,
        session_id: str | None = None,
    ) -> None:
        if max_trials < 1:
            raise OptimizerError(f"max_trials must be >= 1, got {max_trials}")
        if batch_size < 1:
            raise OptimizerError(f"batch_size must be >= 1, got {batch_size}")
        self.optimizer = optimizer
        self.evaluator = evaluator
        self.max_trials = int(max_trials)
        if optimizer.max_suggestions is not None:
            self.max_trials = min(self.max_trials, optimizer.max_suggestions)
        self.max_cost = max_cost
        self.batch_size = int(batch_size)
        self.callbacks = list(callbacks)
        self.executor = executor
        self.store = store
        self.session_id = session_id
        #: Space-lint report attached by :meth:`SessionManager.create`
        #: (``None`` for sessions built directly or with ``lint=False``).
        self.lint_report = None
        self.last_suggest_latency_s = 0.0
        # ask_id (the optimizer's suggestion number) -> (batch coordinates,
        # fidelity) of asks not told yet; the optimizer holds their configurations
        self._pending_asks: dict[int, tuple[dict[str, Any], float | None]] = {}
        self._report_trial_ids: dict[str, int] = {}  # report_id -> trial_id (tell idempotency)
        #: Resume generation: 0 for a fresh session, bumped by
        #: :meth:`SessionManager.resume` past the highest journaled epoch.
        #: Journaled per trial so ``repro replay`` knows where each process
        #: incarnation (and hence each fresh RNG re-seeding) began.
        self.epoch = 0
        self._suggest_calls = 0  # suggest() invocations this epoch
        self._space_hash: str | None = None
        #: Graceful degradation for transient store failures: encoded trial
        #: records that could not be journaled yet, flushed in order before
        #: the next append (or explicitly via :meth:`flush_spill`).
        self._spill: list[tuple[int, dict[str, Any]]] = []

    # -- internals ---------------------------------------------------------
    def _trials_left(self, outstanding: int = 0) -> int:
        """Trials the budget allows beyond those observed and ``outstanding``
        (started, not yet observed); 0 once :func:`budget_spent`."""
        history = self.optimizer.history
        n_trials = len(history) + outstanding
        cost = history.total_cost() if self.max_cost is not None else 0.0
        if budget_spent(n_trials, cost, self.max_trials, self.max_cost):
            return 0
        return self.max_trials - n_trials

    def _budget_left(self, outstanding: int = 0) -> bool:
        return self._trials_left(outstanding) > 0 and not any(cb.should_stop(self) for cb in self.callbacks)

    def _make_executor(self) -> "TrialExecutor":
        if self.executor is not None:
            return self.executor
        from ..execution import SerialExecutor  # deferred: core must not hard-depend on execution

        return SerialExecutor()

    def _suggest_tracked(self, n: int) -> tuple[list[tuple[Configuration, float | None]], range, dict[str, Any]]:
        """One optimizer ``suggest(n)`` call: its (configuration, proposed
        fidelity) pairs, their suggestion numbers and its provenance coordinates.

        Every suggest — closed loop, open loop, or the service's ``/step``
        — funnels through here so the journal can record, for each trial,
        exactly which suggest call produced it (``call``), how wide the
        batch was (``n``), and how many trials the optimizer had observed
        at that moment (``observed``). Replay re-executes suggest calls
        from these coordinates.

        An ask whose response never reached its client (a deadline, a dropped
        connection, a retried ask) is never told. So the optimizer keeps at
        most one untold suggestion per trial left, forgetting the oldest with
        their memos (replay too): a late tell takes :meth:`tell`'s unknown-ask path.
        """
        ask_info = {
            "call": self._suggest_calls,
            "n": int(n),
            "observed": len(self.optimizer.history),
        }
        self._suggest_calls += 1
        first = self.optimizer.n_suggested
        t0 = time.perf_counter()
        with span("optimizer.suggest", n=n):
            configs = self.optimizer.suggest(n)
        self.last_suggest_latency_s = time.perf_counter() - t0
        numbers = range(first, first + len(configs))
        trials = [(config, self.optimizer.suggested_fidelity(number)) for config, number in zip(configs, numbers)]
        for number in self.optimizer.evict(self._trials_left()):
            self._pending_asks.pop(number, None)
        return trials, numbers, ask_info

    # -- ask/tell (open loop) ------------------------------------------------
    @property
    def is_complete(self) -> bool:
        """Whether the trial or cost budget has been exhausted."""
        return self._trials_left() == 0

    def ask(
        self,
        request: SuggestRequest | int | None = None,
        *,
        count: int | None = None,
    ) -> list[Suggestion]:
        """Propose the next configurations without evaluating them.

        The open-loop half of the unified ask/tell surface: the caller (a
        library user, or the HTTP service on behalf of a remote client)
        evaluates the returned configurations and reports results via
        :meth:`tell`. Each suggestion's ``ask_id`` is its number in the
        optimizer (see :class:`~repro.core.optimizer.Optimizer`); echoed
        back in the report, it pairs the tell with that very suggestion.

        ``count`` is keyword-only sugar for a batch ask (``ask(count=8)``);
        batch asks reach the optimizer as one ``suggest(n)`` call so
        surrogate optimizers can amortize a single fit across the batch.
        """
        if count is not None:
            if request is not None:
                raise OptimizerError("pass either a request or count=, not both")
            request = SuggestRequest(n=int(count))
        elif request is None:
            request = SuggestRequest()
        elif isinstance(request, int):
            request = SuggestRequest(n=request)
        remaining = self._trials_left()
        if remaining <= 0:
            budget = f"{self.max_trials} trials" + (f", cost {self.max_cost:g}" if self.max_cost is not None else "")
            raise OptimizerError(
                f"session{f' {self.session_id!r}' if self.session_id else ''} is complete ({budget})"
            )
        trials, numbers, ask_info = self._suggest_tracked(min(request.n, remaining))
        suggestions = []
        for i, (ask_id, (config, proposed)) in enumerate(zip(numbers, trials)):
            fidelity = request.fidelity if request.fidelity is not None else proposed
            self._pending_asks[ask_id] = ({**ask_info, "i": i}, fidelity)
            values = json_safe(config.as_dict())
            suggestions.append(Suggestion(config=values, ask_id=ask_id, session_id=self.session_id, fidelity=fidelity))
        return suggestions

    def tell(self, report: TrialReport | Mapping[str, Any]) -> tuple[Trial, bool]:
        """Record one evaluation result; returns ``(trial, duplicate)``.

        Duplicate reports (same ``report_id`` as an already-recorded one,
        e.g. a client retry after a dropped response) return the original
        trial with ``duplicate=True`` and change nothing. The trial is
        journaled to the attached store *before* this method returns, so an
        acknowledged tell survives a crash.
        """
        if not isinstance(report, TrialReport):
            report = TrialReport.from_dict(report)
        if report.report_id is not None and report.report_id in self._report_trial_ids:
            trial_id = self._report_trial_ids[report.report_id]
            if self._spill:
                # A retried report is a recovery signal: try to drain the
                # spill so the trial we re-acknowledge becomes durable.
                try:
                    self._flush_queue()
                except TransientStorageError as err:
                    emit_event(
                        "store.spill",
                        severity="warning",
                        message=f"spill flush on retried report failed: {err}",
                        session_id=self.session_id,
                        spilled=len(self._spill),
                    )
            return self.optimizer.history[trial_id], True
        config = self.optimizer.untold(report.ask_id)[0] if report.ask_id in self._pending_asks else None
        if config is not None and config.as_dict() == report.config:
            suggestion, (ask_info, fidelity) = report.ask_id, self._pending_asks.pop(report.ask_id)
        else:
            # Foreign: no ask id, an evicted ask, or one reused since (numbers restart
            # every epoch). Rebuild (and re-validate) the configuration from its values.
            config = config_from_values(report.config, self.optimizer.space)
            suggestion, ask_info, fidelity = -1, None, None
        result = EvaluationResult(report.metrics, cost=report.cost, status=TrialStatus(report.status))
        trial = self._enter(
            config,
            suggestion,
            result,
            dict(report.context),
            fidelity=report.fidelity if report.fidelity is not None else fidelity,
            report_id=report.report_id,
            ask_info=ask_info,
        )
        return trial, False

    def _enter(
        self,
        config: Configuration,
        suggestion: int,
        result: EvaluationResult,
        context: dict[str, Any],
        fidelity: float | None = None,
        report_id: str | None = None,
        ask_info: Mapping[str, Any] | None = None,
        span_ref: Any = None,
    ) -> Trial:
        """The one way a trial enters a session, whichever loop produced it.

        The optimizer observes it as the answer to suggestion ``suggestion``
        (a crash or abort under an imputed score), the journal records it,
        then the per-trial callbacks fire.
        ``span_ref`` is the telemetry ref the executor's spans were recorded
        against (``None`` when told, or when they stayed in a process pool);
        the trial id exists only after the observe, so it is bound here.
        """
        trial = observe_evaluation(self.optimizer, config, result, fidelity, context, suggestion)
        if span_ref is not None:
            span_ref.trial_id = trial.trial_id
        self._record(trial, report_id=report_id, ask_info=ask_info)
        if not trial.ok:
            for cb in self.callbacks:
                cb.on_trial_error(self, trial, result.exception)
        for cb in self.callbacks:
            cb.on_trial_end(self, trial)
        return trial

    def _space_version_hash(self) -> str:
        if self._space_hash is None:
            from ..space.serialize import space_version_hash  # deferred: avoid a space->core cycle

            self._space_hash = space_version_hash(self.optimizer.space)
        return self._space_hash

    def _provenance(self, ask_info: Mapping[str, Any] | None) -> dict[str, Any]:
        """The lineage block journaled alongside one trial.

        Captured *after* the observe, so the digests describe the optimizer
        state that the next suggest will draw from — replay re-observes the
        journal prefix and compares against exactly this.
        """
        from .. import __version__  # deferred: the package imports this module

        provenance: dict[str, Any] = {
            "version": 2,
            "digest": self.optimizer.state_digest_parts(),
            "space": self._space_version_hash(),
            "seed": self.optimizer.seed,
            "epoch": self.epoch,
            "ask": dict(ask_info) if ask_info is not None else None,
            "library": __version__,
        }
        trace_id = current_trace_id()
        if trace_id is not None:
            provenance["trace_id"] = trace_id
        return provenance

    def _record(self, trial: Trial, report_id: str | None = None, ask_info: Mapping[str, Any] | None = None) -> None:
        """Durably journal one observed trial (no-op without a store).

        On a *transient* store failure the encoded record is held in the
        bounded in-memory spill buffer instead of failing the observe:
        the tuning loop degrades (acknowledged trials are momentarily
        memory-only) rather than halting, and the buffer is flushed — in
        order, ahead of newer records — as soon as the store recovers.
        Once the buffer exceeds ``spill_limit`` the failure propagates as
        backpressure. Permanent :class:`StorageError`\\ s always propagate.
        """
        if report_id is not None:
            self._report_trial_ids[report_id] = trial.trial_id
        if self.store is None or self.session_id is None:
            return
        record = encode_trial(trial, report_id, self._provenance(ask_info))
        queued = len(self._spill) + 1
        self._spill.append((trial.trial_id, record))
        try:
            self._flush_queue()
        except TransientStorageError as err:
            emit_event(
                "store.spill",
                severity="warning",
                message=str(err),
                session_id=self.session_id,
                spilled=len(self._spill),
                spill_limit=self.spill_limit,
            )
            if len(self._spill) > self.spill_limit:
                raise
            return
        if queued > 1:
            emit_event(
                "store.spill_flush",
                message=f"spill buffer drained ({queued} records)",
                session_id=self.session_id,
                flushed=queued,
            )

    def _flush_queue(self) -> None:
        """Append every spilled record, oldest first; stop at the first
        transient failure (leaving the remainder spilled)."""
        while self._spill:
            trial_id, record = self._spill[0]
            appended = self.store.append_trial(self.session_id, record)
            if appended.trial_id != trial_id:
                raise StorageError(
                    f"journal/optimizer trial-id divergence in session {self.session_id!r}: "
                    f"journal assigned {appended.trial_id}, optimizer {trial_id} "
                    "(was the optimizer observed outside the session?)"
                )
            self._spill.pop(0)

    @property
    def spilled_count(self) -> int:
        """Number of observed-but-not-yet-journaled records."""
        return len(self._spill)

    def flush_spill(self, retries: int = 8, policy: "Any | None" = None) -> int:
        """Drain the spill buffer with bounded jittered retries.

        Called by the service when a session completes (the last chance to
        make every acknowledged trial durable) and usable by library
        callers after a store outage. Returns the number of records
        flushed; re-raises the final :class:`TransientStorageError` if the
        store stays unavailable for the whole retry budget.
        """
        if not self._spill:
            return 0
        if policy is None:
            from ..resilience import BackoffPolicy  # deferred: core must not hard-depend

            policy = BackoffPolicy(base_s=0.02, cap_s=0.5)
        pending = len(self._spill)
        for attempt in range(retries + 1):
            try:
                self._flush_queue()
            except TransientStorageError:
                if attempt == retries:
                    raise
                time.sleep(policy.delay(attempt))
            else:
                emit_event(
                    "store.spill_flush",
                    message=f"spill buffer drained ({pending} records)",
                    session_id=self.session_id,
                    flushed=pending,
                )
                return pending
        return 0  # pragma: no cover - loop always returns or raises

    # -- main loop ----------------------------------------------------------
    def run(self) -> TuningResult:
        """Run to budget exhaustion and return the result.

        With ``batch_size == 1`` on an executor wider than one trial, each
        completion is observed and the next trial suggested while the others
        still run; otherwise the loop runs barrier batches of ``batch_size``.
        """
        if self.evaluator is None:
            raise OptimizerError(
                "session has no evaluator: drive it via ask()/tell(), or construct "
                "it with an evaluator to use run()"
            )
        executor = self._make_executor()
        for cb in self.callbacks:
            cb.on_session_start(self)
        if self.batch_size == 1 and executor.width > 1:
            infos: list[tuple[int, dict[str, Any], float]] = []
            with closing(self._execute(executor, self.evaluator, self._asks_in_flight(infos), infos)) as trials:
                for trial in trials:
                    for cb in self.callbacks:
                        cb.on_batch_end(self, [trial])
        else:
            while self._budget_left():
                want = min(self.batch_size, self._trials_left())
                # For single-trial batches the whole iteration (suggest +
                # execute) belongs to one trial: open a trial scope so optimizer
                # spans (surrogate.fit, acquisition.optimize) attach to it. With
                # want > 1 the suggest serves several trials and stays at the
                # session level; each executor task opens its own scope.
                batch: list[Trial] = []
                with (trial_scope() if want == 1 else nullcontext()), closing(
                    self.run_batch(executor, self.evaluator, want)
                ) as trials:
                    for trial in trials:
                        batch.append(trial)
                        if not self._budget_left():
                            break  # closing() skips the configurations not yet started
                for cb in self.callbacks:
                    cb.on_batch_end(self, batch)
        for cb in self.callbacks:
            cb.on_session_end(self)
        return self.result()

    def _asks_in_flight(
        self, infos: list[tuple[int, dict[str, Any], float]]
    ) -> Iterator[tuple[Configuration, float | None]]:
        """One suggestion at a time, with its fidelity, for as long as the
        budget, counting the trials still in flight, allows another; each is
        its own suggest call, its number and coordinates appended to ``infos``."""
        n_start = len(self.optimizer.history)
        started = 0
        while self._budget_left(outstanding=started - (len(self.optimizer.history) - n_start)):
            (trial,), (number,), ask_info = self._suggest_tracked(1)
            for cb in self.callbacks:
                cb.on_trial_start(self, n_start + started)
            started += 1
            infos.append((number, {**ask_info, "i": 0}, self.last_suggest_latency_s))
            yield trial

    def run_batch(
        self, executor: "TrialExecutor", evaluator: Evaluator, want: int
    ) -> Iterator[Trial]:
        """One closed-loop batch step; yields each trial as it is recorded.

        Suggests ``want`` configurations through the tracked path (so
        journaled trials carry ask-batch provenance), executes them on
        ``executor`` and observes each result as it completes, firing the
        per-trial callbacks. :meth:`run` and the service's ``/step`` are
        this method in a loop. A generator: a caller that stops early must
        ``close()`` it, which closes the executor's result iterator.
        """
        trials, numbers, ask_info = self._suggest_tracked(want)
        n_done = len(self.optimizer.history)
        for i in range(len(trials)):
            for cb in self.callbacks:
                cb.on_trial_start(self, n_done + i)
        share = self.last_suggest_latency_s / max(1, len(trials))
        infos = [(number, {**ask_info, "i": i}, share) for i, number in enumerate(numbers)]
        yield from self._execute(executor, evaluator, trials, infos)

    def _execute(
        self,
        executor: "TrialExecutor",
        evaluator: Evaluator,
        trials: Iterable[tuple[Configuration, float | None]],
        infos: list[tuple[int, dict[str, Any], float]],
    ) -> Iterator[Trial]:
        """Run ``trials`` (each a configuration and the fidelity its
        suggestion proposes) on ``executor`` and enter each result, at its
        fidelity, as it completes. ``infos[k]`` holds the number, ask
        coordinates and suggest-latency share of the ``k``-th trial, once drawn."""
        results = executor.map(evaluator, trials)
        try:
            for execution in results:
                # Execution-side instrumentation travels in ``Trial.context``.
                number, ask_info, suggest_s = infos[execution.index]
                result = execution.result
                context = dict(result.metadata)
                context["retries"] = execution.retries
                context["evaluate_s"] = execution.wall_clock_s
                context["suggest_latency_s"] = suggest_s
                context.setdefault("outcome", result.outcome)
                if execution.queue_s:
                    context["queue_s"] = execution.queue_s
                if execution.attempts:
                    context["attempts"] = list(execution.attempts)
                if execution.attempt_s:
                    context["attempt_s"] = [round(a, 6) for a in execution.attempt_s]
                yield self._enter(
                    execution.config,
                    number,
                    result,
                    context,
                    fidelity=execution.fidelity,
                    ask_info=ask_info,
                    span_ref=execution.span_ref,
                )
        finally:
            close = getattr(results, "close", None)
            if close is not None:
                close()

    def result(self) -> TuningResult:
        """Snapshot the current result (valid mid-run as well)."""
        return TuningResult.from_history(self.optimizer.history)
