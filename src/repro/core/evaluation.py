"""The evaluation contract: one normalized result type for every evaluator.

Evaluators return an :class:`EvaluationResult`, a ``(metrics, cost)`` tuple, or
a bare metric mapping or float, and signal crashes and aborts by raising.
This module is the one place where raw evaluator output becomes an
:class:`EvaluationResult` and where a result reaches an optimizer; the
executors, ``TuningSession`` and replay all call it:

* :func:`coerce_evaluation` normalizes the three return shapes;
* :func:`run_evaluation` additionally folds the exception protocol
  (:class:`~repro.exceptions.SystemCrashError`,
  :class:`~repro.exceptions.TrialAbortedError` with optional censored
  metrics) into statuses;
* :func:`observe_evaluation` records a result with an optimizer: a success
  with its metrics, anything else under an imputed score.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..exceptions import SystemCrashError, TrialAbortedError
from ..space import Configuration
from .optimizer import Optimizer, Trial, TrialStatus

__all__ = ["EvaluationResult", "coerce_evaluation", "run_evaluation", "observe_evaluation"]


@dataclass
class EvaluationResult:
    """What evaluating one configuration produced.

    Parameters
    ----------
    metrics:
        Metric mapping or a bare objective value; ``None`` when the trial
        produced nothing measurable (crash, abort without censoring).
    cost:
        Resource cost of the evaluation (benchmark seconds, dollars, …).
    status:
        Trial lifecycle outcome. Censored early-aborts count as
        ``SUCCEEDED`` — the censored bound is real information.
    metadata:
        Free-form annotations (``outcome``, ``error`` text, …) that flow
        into :attr:`Trial.context` and telemetry spans.
    exception:
        The exception that terminated the evaluation, if any. Kept out of
        ``metadata`` so serialization stays JSON-clean.
    """

    metrics: Mapping[str, float] | float | None
    cost: float = 1.0
    status: TrialStatus = TrialStatus.SUCCEEDED
    metadata: dict[str, Any] = field(default_factory=dict)
    exception: BaseException | None = None

    @property
    def ok(self) -> bool:
        return self.status is TrialStatus.SUCCEEDED

    @property
    def outcome(self) -> str:
        """Short outcome tag: success / crash / abort / censored / timeout."""
        return str(self.metadata.get("outcome", "success" if self.ok else self.status.value))


def coerce_evaluation(raw: Any) -> EvaluationResult:
    """Normalize any evaluator return value to an :class:`EvaluationResult`.

    Accepted shapes:

    1. an :class:`EvaluationResult` (returned as-is);
    2. a ``(metrics, cost)`` 2-tuple;
    3. a bare metric mapping or float (cost defaults to ``1.0``).
    """
    if isinstance(raw, EvaluationResult):
        return raw
    if isinstance(raw, tuple) and len(raw) == 2:
        metrics, cost = raw
        return EvaluationResult(metrics=metrics, cost=float(cost))
    return EvaluationResult(metrics=raw, cost=1.0)


def run_evaluation(
    evaluator: Callable[[Configuration], Any],
    config: Configuration,
) -> EvaluationResult:
    """Evaluate ``config``, folding the exception protocol into statuses.

    * :class:`SystemCrashError` → ``FAILED`` (``outcome="crash"``);
    * :class:`TrialAbortedError` with ``censored_metrics`` → ``SUCCEEDED``
      with the censored bound as the metric (``outcome="censored"``);
    * :class:`TrialAbortedError` without → ``ABORTED`` (``outcome="abort"``).

    Imputation of failed trials is *not* done here — optimizers impute at
    observe/fit time against the live score scale (see
    :meth:`Optimizer.observe_failure` and :meth:`History.training_data`).
    """
    try:
        return coerce_evaluation(evaluator(config))
    except SystemCrashError as crash:
        return EvaluationResult(
            metrics=None,
            status=TrialStatus.FAILED,
            metadata={"outcome": "crash", "error": str(crash)},
            exception=crash,
        )
    except TrialAbortedError as abort:
        censored = getattr(abort, "censored_metrics", None)
        if censored:
            return EvaluationResult(
                metrics=dict(censored),
                cost=float(getattr(abort, "cost", 1.0)),
                status=TrialStatus.SUCCEEDED,
                metadata={"outcome": "censored", "error": str(abort)},
                exception=abort,
            )
        return EvaluationResult(
            metrics=None,
            status=TrialStatus.ABORTED,
            metadata={"outcome": "abort", "error": str(abort)},
            exception=abort,
        )


def observe_evaluation(
    optimizer: Optimizer,
    config: Configuration,
    result: EvaluationResult,
    fidelity: float | None = None,
    context: Mapping[str, Any] | None = None,
) -> Trial:
    """Record ``result`` with ``optimizer``: a success (censored bounds
    included) with its metrics, a crash or abort under an imputed score."""
    if result.ok:
        return optimizer.observe(
            config, result.metrics, cost=result.cost, status=result.status, fidelity=fidelity, context=context
        )
    return optimizer.observe_failure(
        config, cost=result.cost, status=result.status, fidelity=fidelity, context=context
    )
