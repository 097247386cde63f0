"""One codec for trial payloads: library, journal, and wire share it.

Before this module existed the repository had three slightly different
trial-dict shapes — the whole-file JSON dumps wrote one, the benchmark
runner summarised another, and the online agent's step records a third.
Every serialised trial now goes through :func:`encode_trial` /
:func:`decode_trial`, and the ask/tell surface (both the in-process
:meth:`~repro.core.session.TuningSession.ask`/``tell`` and the HTTP wire
schema in :mod:`repro.service.wire`) speaks the dataclass payloads defined
here: :class:`SuggestRequest` in, :class:`Suggestion` out, and
:class:`TrialReport` back.

The payloads are deliberately plain: JSON-safe dicts of primitives, so the
same object can cross a process boundary, land in an append-only journal,
or be handed straight to :meth:`Optimizer.observe`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from ..exceptions import ReproError
from ..space import Configuration, ConfigurationSpace
from .optimizer import Trial, TrialStatus, json_safe

__all__ = [
    "CodecError",
    "SuggestRequest",
    "Suggestion",
    "TrialReport",
    "encode_trial",
    "decode_trial",
    "json_safe",
]


class CodecError(ReproError):
    """A payload could not be encoded or decoded."""


# -- ask ---------------------------------------------------------------------


@dataclass(frozen=True)
class SuggestRequest:
    """Ask for the next configurations of a session.

    ``session_id`` is optional for in-process use (the session *is* the
    addressee) and required on the wire.
    """

    n: int = 1
    session_id: str | None = None
    fidelity: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise CodecError(f"SuggestRequest.n must be >= 1, got {self.n}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SuggestRequest":
        if "n" in data and "count" in data:
            raise CodecError("SuggestRequest accepts 'n' or 'count', not both")
        try:
            return cls(
                # "count" is the wire alias used by batch clients;
                # "n" remains the canonical field.
                n=int(data.get("n", data.get("count", 1))),
                session_id=data.get("session_id"),
                fidelity=None if data.get("fidelity") is None else float(data["fidelity"]),
            )
        except (TypeError, ValueError, OverflowError) as err:
            raise CodecError(f"malformed SuggestRequest: {err}") from err


@dataclass(frozen=True)
class Suggestion:
    """One proposed configuration, tagged with the ask that produced it.

    ``ask_id`` is the optimizer's number for the suggestion, increasing in
    suggest order; a client echoes it back in the matching :class:`TrialReport`
    so the tell pairs with this very suggestion, when the report's values are
    the ask's. A report for an unknown ask, or for an id that now names
    another ask (numbers restart when a session resumes), is still accepted
    and recorded under its own values, as a foreign trial.
    """

    config: dict[str, Any]
    ask_id: int
    session_id: str | None = None
    fidelity: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return json_safe(asdict(self))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Suggestion":
        try:
            return cls(
                config=dict(data["config"]),
                ask_id=int(data["ask_id"]),
                session_id=data.get("session_id"),
                fidelity=None if data.get("fidelity") is None else float(data["fidelity"]),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise CodecError(f"malformed Suggestion: {err}") from err


# -- tell --------------------------------------------------------------------


@dataclass(frozen=True)
class TrialReport:
    """The result of evaluating one configuration.

    The single tell payload for every surface: ``TuningSession.tell`` takes
    it directly, the HTTP ``/tell`` endpoint decodes one from the request
    body, and the journal stores its encoded form.

    ``report_id`` is an optional client-chosen idempotency key: telling the
    same report twice (e.g. a retry after a dropped HTTP response) records
    the trial once. ``status`` other than ``succeeded`` records a failure
    and lets the optimizer impute the score; ``metrics`` may then be empty.
    """

    config: dict[str, Any]
    metrics: dict[str, float] = field(default_factory=dict)
    cost: float = 1.0
    status: str = TrialStatus.SUCCEEDED.value
    fidelity: float | None = None
    context: dict[str, Any] = field(default_factory=dict)
    ask_id: int | None = None
    report_id: str | None = None
    session_id: str | None = None

    def __post_init__(self) -> None:
        try:
            TrialStatus(self.status)
        except ValueError:
            raise CodecError(
                f"unknown trial status {self.status!r}; expected one of "
                f"{[s.value for s in TrialStatus]}"
            ) from None
        if not isinstance(self.report_id, (str, int, type(None))):
            raise CodecError(f"report_id must be a string, got {self.report_id!r}")

    def to_dict(self) -> dict[str, Any]:
        return json_safe(asdict(self))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrialReport":
        try:
            metrics = data.get("metrics", {})
            if isinstance(metrics, (int, float)):
                metrics = {"score": float(metrics)}
            return cls(
                config=dict(data["config"]),
                metrics={str(k): float(v) for k, v in dict(metrics).items()},
                cost=float(data.get("cost", 1.0)),
                status=str(data.get("status", TrialStatus.SUCCEEDED.value)),
                fidelity=None if data.get("fidelity") is None else float(data["fidelity"]),
                context=dict(data.get("context", {})),
                ask_id=None if data.get("ask_id") is None else int(data["ask_id"]),
                report_id=data.get("report_id"),
                session_id=data.get("session_id"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise CodecError(f"malformed TrialReport: {err}") from err


# -- trial records (journal) --------------------------------------------------


def encode_trial(
    trial: Trial, report_id: str | None = None, provenance: Mapping[str, Any] | None = None
) -> dict[str, Any]:
    """The canonical JSON-safe record of one trial.

    The same shape is appended to journals, stored in prior banks, and
    returned over the wire.

    ``provenance`` is journaled under a ``"provenance"`` key: seed lineage,
    optimizer state digest, space version hash, ask-batch coordinates,
    library version, and parent trace id —
    everything ``repro replay`` needs to re-execute the session bit-exactly
    and to pinpoint the first divergence when it cannot. It belongs to the
    record, not to the trial: :class:`~repro.core.session.TuningSession`
    builds it when it journals, and readers take it from the record.
    """
    record = {
        "trial_id": trial.trial_id,
        "config": json_safe(trial.config.as_dict()),
        "status": trial.status.value,
        "metrics": {str(k): float(v) for k, v in trial.metrics.items()},
        "cost": float(trial.cost),
        "fidelity": trial.fidelity,
        "context": json_safe(trial.context),
    }
    if report_id is not None:
        record["report_id"] = report_id
    if provenance is not None:
        record["provenance"] = json_safe(provenance)
    return record


def decode_trial(record: Mapping[str, Any], space: ConfigurationSpace) -> Trial:
    """Rebuild a trial, re-validating the configuration against ``space``.

    The configuration goes through :func:`config_from_values`, so
    histories transfer across compatible spaces. The record's
    ``"provenance"`` stays in the record.
    """
    try:
        return Trial(
            trial_id=int(record["trial_id"]),
            config=config_from_values(record["config"], space),
            status=TrialStatus(record["status"]),
            metrics={k: float(v) for k, v in record.get("metrics", {}).items()},
            cost=float(record.get("cost", 1.0)),
            fidelity=record.get("fidelity"),
            context=dict(record.get("context", {})),
        )
    except (KeyError, ValueError, TypeError) as err:
        raise ReproError(f"malformed trial record: {err}") from err


def config_from_values(values: Mapping[str, Any], space: ConfigurationSpace) -> Configuration:
    """Re-validate a plain value mapping into a configuration of ``space``.

    Unknown knobs are dropped and missing ones take defaults, so recorded
    values transfer across compatible spaces.
    """
    return space.make({k: v for k, v in values.items() if k in space}, check_constraints=False)
