"""Telemetry wiring for tuning sessions, via the Callback mechanism.

:class:`TelemetryCallback` turns the hook stream of a
:class:`~repro.core.session.TuningSession` into a
:class:`~repro.telemetry.tracing.SessionTrace`: exactly one
``session.trial`` root span per trial (success *or* failure), latency
histograms (trial / suggest / evaluate / queue seconds, so p50/p95/p99
come for free), counters for starts/outcomes/errors/retries/batches, and
gauges for the incumbent.

On ``on_session_start`` the callback *activates* its trace
(:mod:`repro.telemetry.spans`), so every instrumented layer below — the
session's ``optimizer.suggest`` span, the optimizer's ``surrogate.fit``
and ``acquisition.optimize``, the executor's ``executor.run`` /
``executor.attempt`` spans and retry/timeout events, the benchmark
runner's ``benchmark.measure`` — lands in the same trace and, at
``on_trial_end``, under the right trial's root, including across
:class:`~repro.execution.ThreadedExecutor` worker threads. Execution-side
numbers (evaluate wall-clock, queue wait, retry count, per-attempt
durations, outcome tag, suggest latency) arrive through ``Trial.context``
and become the root's attributes, so the per-trial record stays complete
even for process-pool executors whose child processes cannot contribute
spans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from ..core.callbacks import Callback
from ..core.optimizer import Trial, best_at_top_fidelity
from ..exceptions import OptimizerError
from .tracing import SessionTrace

if TYPE_CHECKING:  # pragma: no cover
    from ..core.session import TuningSession

__all__ = ["TelemetryCallback"]


class TelemetryCallback(Callback):
    """Records a :class:`SessionTrace` for a tuning session.

    Parameters
    ----------
    trace:
        Trace to append to; a fresh one is created when omitted.
    export_path:
        When set, the trace is written there as JSON at session end.
    metrics_path:
        When set, the metrics registry is written there at session end
        (Prometheus text for ``.prom``/``.txt``, JSON otherwise).
    span_attributes:
        Attributes stamped on every trial span (e.g. ``{"optimizer":
        "bo", "seed": 3}`` when several runs share one trace).
    """

    def __init__(
        self,
        trace: SessionTrace | None = None,
        export_path: str | None = None,
        metrics_path: str | None = None,
        span_attributes: Mapping[str, object] | None = None,
    ) -> None:
        self.trace = trace if trace is not None else SessionTrace()
        self.export_path = export_path
        self.metrics_path = metrics_path
        self.span_attributes = dict(span_attributes) if span_attributes else {}
        self._activation = None

    # -- hooks ---------------------------------------------------------------
    def on_session_start(self, session: "TuningSession") -> None:
        self.trace.metrics.inc("sessions.started")
        # Activate: nested spans/events from every layer below now land in
        # this trace for the duration of the run.
        self._activation = self.trace.activated()
        self._activation.__enter__()

    def on_trial_start(self, session: "TuningSession", trial_index: int) -> None:
        self.trace.metrics.inc("trials.started")

    def on_trial_error(self, session: "TuningSession", trial: Trial, exc: BaseException | None) -> None:
        self.trace.metrics.inc("trials.errors")
        if exc is not None:
            self.trace.metrics.inc(f"trials.errors.{type(exc).__name__}")

    def on_trial_end(self, session: "TuningSession", trial: Trial) -> None:
        ctx = trial.context
        metrics = self.trace.metrics
        evaluate_s = float(ctx.get("evaluate_s", 0.0))
        suggest_s = float(ctx.get("suggest_latency_s", 0.0))
        queue_s = float(ctx.get("queue_s", 0.0))
        retries = int(ctx.get("retries", 0))
        attributes = {
            "outcome": str(ctx.get("outcome", "success" if trial.ok else trial.status.value)),
            "trial_status": trial.status.value,
            "retries": retries,
            "cost": trial.cost,
            "suggest_latency_s": suggest_s,
            "evaluate_s": evaluate_s,
            "queue_s": queue_s,
        }
        if ctx.get("attempt_s"):
            attributes["attempt_s"] = list(ctx["attempt_s"])
        if ctx.get("attempts"):
            attributes["attempts"] = list(ctx["attempts"])
        # An online step says what it ran under and the reward it measured.
        attributes.update((key, ctx[key]) for key in ("workload", "value") if key in ctx)
        if trial.ok and "reward" in trial.metrics:
            attributes["reward"] = trial.metrics["reward"]
        attributes.update(self.span_attributes)
        # Surrogate hot-path counters (cholesky_ms, nll_evals, cache hits …):
        # optimizers exposing `surrogate_stats()` get a cumulative snapshot on
        # every trial root, so traces show where optimizer time goes.
        stats_fn = getattr(session.optimizer, "surrogate_stats", None)
        snapshot = stats_fn() if callable(stats_fn) else None
        if snapshot:
            attributes["surrogate"] = dict(snapshot)
            metrics.absorb(snapshot, "surrogate")
        root = self.trace.record_trial(
            trial.trial_id,
            evaluate_s + suggest_s + queue_s,
            attributes,
            status="ok" if trial.ok else "error",
            error=ctx.get("error"),
        )
        metrics.inc("trials.total")
        metrics.inc(f"trials.{trial.status.value}")
        if retries:
            metrics.inc("trials.retries", retries)
        metrics.inc("cost.total", trial.cost)
        # Latency distributions: the p50/p95/p99 the CLI summary reports.
        metrics.observe("trial.seconds", root.duration_s)
        metrics.observe("suggest.seconds", suggest_s)
        metrics.observe("evaluate.seconds", evaluate_s)
        if queue_s:
            metrics.observe("queue.seconds", queue_s)

    def on_batch_end(self, session: "TuningSession", trials: Sequence[Trial]) -> None:
        self.trace.metrics.inc("batches.total")
        self.trace.metrics.set_gauge("batch.size.last", float(len(trials)))

    def on_session_end(self, session: "TuningSession") -> None:
        obj = session.optimizer.objective
        try:
            best = best_at_top_fidelity(session.optimizer.history.completed(), lambda t: obj.score(t.metric(obj.name)))
            self.trace.metrics.set_gauge("best.value", float(best.metric(obj.name)))
        except OptimizerError:
            pass  # every trial failed — there is no incumbent to report
        self.trace.metrics.set_gauge("trials.history", float(len(session.optimizer.history)))
        if self._activation is not None:
            self._activation.__exit__(None, None, None)
            self._activation = None
        if self.export_path is not None:
            self.trace.export(self.export_path)
        if self.metrics_path is not None:
            self.trace.metrics.write(self.metrics_path)
