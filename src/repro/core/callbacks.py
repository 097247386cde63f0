"""Session callbacks: convergence tracking, logging, early stopping.

Hook ordering
-------------
For every batch the :class:`~repro.core.session.TuningSession` dispatches,
hooks fire in this order (telemetry and retry logic rely on it):

1. ``on_session_start(session)`` — exactly once, before the first batch
   (telemetry activates its trace here).
2. ``should_stop(session)`` — polled before each batch; any ``True`` ends
   the session.
3. ``on_trial_start(session, trial_index)`` — once per trial in the batch,
   in dispatch order, *before* any trial of the batch executes.
4. Per trial, in **completion order** (= dispatch order for the serial
   executor, arbitrary for pool executors):

   a. ``on_trial_error(session, trial, exc)`` — only for trials that ended
      ``FAILED``/``ABORTED``; the trial is already recorded (with imputed
      metrics) when this fires, and ``exc`` is the causing exception or
      ``None`` (e.g. a timeout detected post-hoc).
   b. ``on_trial_end(session, trial)`` — every trial, success or failure.

5. ``on_batch_end(session, trials)`` — once per batch, after every
   ``on_trial_end`` of the batch, with the trials in completion order.
6. ``on_session_end(session)`` — exactly once, after the final batch.

All hooks are no-ops on the base class, so subclasses override only what
they need — no subclass hacks required to see errors or batch boundaries.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..exceptions import OptimizerError
from .optimizer import Trial

if TYPE_CHECKING:  # pragma: no cover
    from .session import TuningSession

__all__ = ["Callback", "ConvergenceTracker", "LoggingCallback", "StopWhenReached", "StopWhenConverged"]

logger = logging.getLogger(__name__)


class Callback:
    """Observer hooks invoked by :class:`~repro.core.session.TuningSession`.

    See the module docstring for the guaranteed hook ordering.
    """

    def on_session_start(self, session: "TuningSession") -> None:
        """Called once when the session's run loop begins, before any trial."""

    def on_trial_start(self, session: "TuningSession", trial_index: int) -> None:
        """Called before each trial is evaluated (per batch, in dispatch order)."""

    def on_trial_error(self, session: "TuningSession", trial: Trial, exc: BaseException | None) -> None:
        """Called when a trial failed or aborted, just before ``on_trial_end``.

        ``trial`` is already recorded in the history (with imputed metrics);
        ``exc`` is the exception that ended the evaluation, when one exists.
        """

    def on_trial_end(self, session: "TuningSession", trial: Trial) -> None:
        """Called after each trial is recorded."""

    def on_batch_end(self, session: "TuningSession", trials: Sequence[Trial]) -> None:
        """Called once per dispatched batch, after all its trials ended."""

    def on_session_end(self, session: "TuningSession") -> None:
        """Called once when the session finishes."""

    def should_stop(self, session: "TuningSession") -> bool:
        """Return True to end the session early."""
        return False


class ConvergenceTracker(Callback):
    """Records (trial index, cumulative cost, best-so-far) tuples."""

    def __init__(self) -> None:
        self.trial_indices: list[int] = []
        self.cumulative_cost: list[float] = []
        self.best_so_far: list[float] = []
        self._cost = 0.0
        self._best_score = np.inf

    def on_trial_end(self, session: "TuningSession", trial: Trial) -> None:
        obj = session.optimizer.objective
        self._cost += trial.cost
        if trial.ok:
            self._best_score = min(self._best_score, obj.score(trial.metric(obj.name)))
        self.trial_indices.append(trial.trial_id)
        self.cumulative_cost.append(self._cost)
        self.best_so_far.append(
            obj.unscore(self._best_score) if np.isfinite(self._best_score) else np.nan
        )


class LoggingCallback(Callback):
    """Logs each trial at INFO level — the session's flight recorder."""

    def __init__(self, every: int = 1) -> None:
        self.every = max(1, int(every))

    def on_trial_end(self, session: "TuningSession", trial: Trial) -> None:
        if trial.trial_id % self.every:
            return
        obj = session.optimizer.objective
        value = trial.metrics.get(obj.name, float("nan"))
        logger.info(
            "trial=%d status=%s %s=%.6g cost=%.3g",
            trial.trial_id, trial.status.value, obj.name, value, trial.cost,
        )


class StopWhenReached(Callback):
    """Stop the session once the incumbent reaches a target value."""

    def __init__(self, target: float) -> None:
        self.target = float(target)

    def should_stop(self, session: "TuningSession") -> bool:
        obj = session.optimizer.objective
        try:
            best = session.optimizer.history.best_value(obj)
        except OptimizerError:  # no completed trial yet
            return False
        return obj.score(best) <= obj.score(self.target)


class StopWhenConverged(Callback):
    """Stop when the incumbent has not improved for ``patience`` trials.

    The standard budget-saver: tuning campaigns rarely know the right trial
    count up front, but "no progress in N trials" is a serviceable proxy
    for convergence.
    """

    #: An improvement smaller than this fraction of the incumbent does not reset the count.
    REL_TOLERANCE = 1e-3

    def __init__(self, patience: int = 15, min_trials: int = 10) -> None:
        if patience < 1 or min_trials < 1:
            raise ValueError("patience and min_trials must be >= 1")
        self.patience = int(patience)
        self.min_trials = int(min_trials)
        self._best: float | None = None
        self._since_improvement = 0
        self._n_trials = 0

    def on_trial_end(self, session: "TuningSession", trial: Trial) -> None:
        obj = session.optimizer.objective
        self._n_trials += 1
        if not trial.ok:
            self._since_improvement += 1
            return
        score = obj.score(trial.metric(obj.name))
        if self._best is None or score < self._best - abs(self._best) * self.REL_TOLERANCE:
            self._best = score
            self._since_improvement = 0
        else:
            self._since_improvement += 1

    def should_stop(self, session: "TuningSession") -> bool:
        return self._n_trials >= self.min_trials and self._since_improvement >= self.patience
