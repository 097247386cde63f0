"""The service wire schema: JSON bodies ↔ the core codec dataclasses.

There is deliberately no service-specific trial shape: ``/ask`` returns
:class:`~repro.core.codec.Suggestion` payloads and ``/tell`` accepts
:class:`~repro.core.codec.TrialReport` payloads — the very dataclasses
:meth:`TuningSession.ask`/``tell`` use in-process, serialised by the same
codec. This module adds only what HTTP needs on top: the create-session
request, strict JSON body parsing, error envelopes, and the one rule that
turns an exception into an HTTP status (:func:`error_status`).

Endpoints (see ``docs/service.md`` for the full contract)::

    GET  /healthz                      liveness
    GET  /metrics                      Prometheus text exposition
    GET  /sessions                     list session ids
    POST /sessions                     create (CreateSessionRequest)
    GET  /sessions/{id}                status snapshot
    POST /sessions/{id}/ask            SuggestRequest -> {suggestions: [...]}
    POST /sessions/{id}/tell           TrialReport -> {trial_id, duplicate}
    POST /sessions/{id}/step           server-side evaluate n trials
    POST /sessions/{id}/complete       mark finished

Another method on one of these paths answers 405, any other path 404.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..core.codec import SuggestRequest, TrialReport, json_safe
from ..core.journal import StorageError, TransientStorageError, UnknownSessionError
from ..exceptions import ReproError

__all__ = [
    "WireError",
    "CreateSessionRequest",
    "parse_json_body",
    "dump_json",
    "error_body",
    "error_status",
    "SuggestRequest",
    "TrialReport",
]


class WireError(ReproError):
    """A malformed request body or parameter (maps to HTTP 400)."""


def parse_json_body(body: bytes) -> dict[str, Any]:
    """Decode a request body as a JSON object (empty body → ``{}``)."""
    if not body:
        return {}
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise WireError(f"request body is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise WireError(f"request body must be a JSON object, got {type(data).__name__}")
    return data


def dump_json(payload: Any) -> bytes:
    return json.dumps(json_safe(payload), separators=(",", ":")).encode("utf-8")


def error_body(
    status: int,
    message: str,
    trace_id: str | None = None,
    retry_after: float | None = None,
) -> bytes:
    """JSON error envelope; carries the request's trace id when one is bound.

    Without the id, a failed request is invisible in traces — the client
    sees an opaque 4xx/5xx and cannot find the matching server-side
    ``http.request`` span. The server passes the current distributed trace
    id so every error response is greppable in the server's trace.

    ``retry_after`` mirrors the ``Retry-After`` response header into the
    body for clients that only see the envelope (e.g. through proxies that
    strip nonstandard headers): 429/503 responses carry the server's
    backoff hint in both places.
    """
    error: dict[str, Any] = {"status": status, "message": message}
    if trace_id is not None:
        error["trace_id"] = trace_id
    if retry_after is not None:
        error["retry_after"] = retry_after
    return dump_json({"error": error})


#: Whose fault a failure is, first match wins. Every error raised on purpose
#: derives from ``ReproError``, so what falls off the end is a bug (500).
_STATUS_RULE: tuple[tuple[type[BaseException], int], ...] = (
    (TransientStorageError, 503),  # the store, for now: back off and retry
    (UnknownSessionError, 404),
    (StorageError, 409),  # the store, for good: retrying cannot help
    (ReproError, 400),  # the request
    (asyncio.TimeoutError, 503),  # the per-request deadline
)


def error_status(err: BaseException) -> int:
    """The HTTP status of a failed request — the only exception → status map."""
    return next((status for cls, status in _STATUS_RULE if isinstance(err, cls)), 500)


@dataclass(frozen=True)
class CreateSessionRequest:
    """Body of ``POST /sessions``.

    Exactly one of ``space`` (a :func:`~repro.space.serialize.space_to_dict`
    description — client-defined knobs) or ``target`` (a registered
    simulated-system spec, see :mod:`repro.targets`; enables server-side
    ``/step`` evaluation and implies the space) must be given.
    """

    optimizer: str = "random"
    max_trials: int = 100
    space: dict[str, Any] | None = None
    target: dict[str, Any] | None = None
    objectives: list[dict[str, Any]] = field(default_factory=list)
    max_cost: float | None = None
    seed: int | None = None
    optimizer_options: dict[str, Any] = field(default_factory=dict)
    session_id: str | None = None
    resume: bool = False  # if the id already exists, resume instead of erroring
    strict: bool = False  # reject spaces with ERROR-severity lint findings
    lint_ignore: list[str] = field(default_factory=list)  # rule ids to suppress

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CreateSessionRequest":
        space = data.get("space")
        target = data.get("target")
        if (space is None) == (target is None):
            raise WireError("provide exactly one of 'space' or 'target'")
        try:
            request = cls(
                optimizer=str(data.get("optimizer", "random")),
                max_trials=int(data.get("max_trials", 100)),
                space=None if space is None else dict(space),
                target=None if target is None else dict(target),
                objectives=[dict(o) for o in data.get("objectives", [])],
                max_cost=None if data.get("max_cost") is None else float(data["max_cost"]),
                seed=None if data.get("seed") is None else int(data["seed"]),
                optimizer_options=dict(data.get("optimizer_options", {})),
                session_id=None if data.get("session_id") is None else str(data["session_id"]),
                resume=bool(data.get("resume", False)),
                strict=bool(data.get("strict", False)),
                lint_ignore=[str(r) for r in data.get("lint_ignore", [])],
            )
        except (TypeError, ValueError, OverflowError) as err:
            raise WireError(f"malformed create-session request: {err}") from err
        if any("name" not in objective for objective in request.objectives):
            raise WireError("every objective needs a 'name'")
        return request


#: The bodies of ``/ask`` (and the ``n`` of ``/step``) and of ``/tell`` are the
#: codec's own payloads; the wire names them for the handlers and the layer tracer.
parse_suggest_request = SuggestRequest.from_dict
parse_trial_report = TrialReport.from_dict
