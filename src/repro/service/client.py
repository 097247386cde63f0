"""A minimal asyncio client for the tuning service (stdlib only).

One connection per request (simple and robust against server restarts —
exactly the situation a durable tuning service is designed for). The
client speaks the same wire dataclasses as the server: ``ask`` returns
:class:`~repro.core.codec.Suggestion` objects, ``tell`` takes a
:class:`~repro.core.codec.TrialReport`.

``tell_reliably`` is the recommended way to report results: it retries
with the same ``report_id``, relying on the server's journal-level
deduplication — at-least-once delivery, exactly-once recording. What is
retryable (no answer, or 429/503) and how long to wait first is written
once, in ``ServiceClient._back_off``.
"""

from __future__ import annotations

import asyncio
import json
import random
import uuid
from typing import Any, Mapping, Sequence

from ..core.codec import Suggestion, TrialReport
from ..exceptions import ReproError
from ..resilience import BackoffPolicy, CircuitBreaker
from ..telemetry.spans import current_trace_context, format_traceparent, new_trace_id, span
from ..telemetry.tracing import SessionTrace
from .wire import WireError

__all__ = ["ServiceClient", "ServiceError"]

#: Statuses that mean "the server is fine, just not right now" — retried
#: by ``tell_reliably``/``run_session`` alongside connection failures.
_RETRYABLE_STATUSES = frozenset({429, 503})
#: No answer at all: the server is down, restarting, or unreachable.
_CONNECTION_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError)


class ServiceError(ReproError):
    """A non-2xx response from the service.

    ``retry_after`` carries the server's ``Retry-After`` hint (seconds)
    when the response supplied one (429/503 under admission control);
    retry loops feed it to :meth:`BackoffPolicy.delay`, where it overrides
    the client-side curve.
    """

    def __init__(self, status: int, message: str, retry_after: float | None = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


class ServiceClient:
    """HTTP client for the tuning service.

    Every request carries a W3C ``traceparent`` header: the trace id comes
    from the ambient trace context when one is bound (e.g. inside an
    activated :class:`~repro.telemetry.SessionTrace`), else from a
    per-client id minted at construction — so all calls of one client
    stitch into one distributed trace either way. Pass ``trace`` to also
    record a client-side ``service.request`` span per call (wire time,
    route, status, retry count).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout_s: float = 30.0,
        trace: SessionTrace | None = None,
        backoff: BackoffPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        transport_faults: Any | None = None,
        backoff_seed: int | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self.trace = trace
        self.trace_id = trace.trace_id if trace is not None else new_trace_id()
        #: The shared retry curve for every retry loop on this client.
        self.backoff = backoff or BackoffPolicy()
        #: Optional per-client circuit breaker: consecutive transport
        #: failures open it, and while open requests fail fast with
        #: :class:`~repro.resilience.CircuitOpenError` (a ConnectionError,
        #: so the retry loops back off and re-probe).
        self.breaker = breaker
        #: Optional :class:`repro.chaos.ClientFaultTransport` injecting
        #: connection resets / latency ahead of real I/O.
        self.transport_faults = transport_faults
        #: Deterministic jitter for tests; ``None`` uses the process-wide
        #: seeded jitter source.
        self._rng = random.Random(backoff_seed) if backoff_seed is not None else None

    # -- transport ----------------------------------------------------------
    async def request(
        self,
        method: str,
        path: str,
        payload: Mapping[str, Any] | None = None,
        retry: int = 0,
    ) -> Any:
        if self.trace is None:
            return await self._request(method, path, payload, retry)
        with self.trace.activated():
            return await self._request(method, path, payload, retry)

    async def _request(
        self, method: str, path: str, payload: Mapping[str, Any] | None, retry: int
    ) -> Any:
        ctx = current_trace_context()
        trace_id = ctx.trace_id if ctx is not None else self.trace_id
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Content-Type: application/json\r\n"
            f"Traceparent: {format_traceparent(trace_id)}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        if self.breaker is not None and not self.breaker.allow():
            raise self.breaker.reject()
        with span("service.request", route=path, method=method, retry=retry) as op:
            try:
                if self.transport_faults is not None:
                    # Injected wire faults (chaos): resets/latency raised
                    # here exercise the same retry/breaker paths as real ones.
                    await self.transport_faults.before_request(path)
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port), self.timeout_s
                )
                try:
                    writer.write(head.encode("latin-1") + body)
                    await writer.drain()
                    raw = await asyncio.wait_for(reader.read(), self.timeout_s)
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                        pass
                data = self._parse_response(raw)
            except ServiceError as err:
                # The server answered: transport is healthy, whatever the status.
                if self.breaker is not None:
                    self.breaker.record_success()
                if op is not None:
                    op.set(status=err.status)
                raise
            except _CONNECTION_ERRORS:
                if self.breaker is not None:
                    self.breaker.record_failure()
                raise
            if self.breaker is not None:
                self.breaker.record_success()
            if op is not None:
                op.set(status=200)
            return data

    @staticmethod
    def _parse_response(raw: bytes) -> Any:
        if not raw:
            raise ConnectionError("empty response (server closed the connection)")
        head, _, body = raw.partition(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        try:
            status = int(status_line.split()[1])
        except (IndexError, ValueError):
            raise WireError(f"malformed status line {status_line!r}") from None
        content_type = ""
        retry_after: float | None = None
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-type":
                content_type = value.strip()
            elif name == "retry-after":
                try:
                    retry_after = float(value.strip())
                except ValueError:
                    retry_after = None  # HTTP-date form: ignore, use the curve
        if content_type.startswith("application/json"):
            data = json.loads(body.decode("utf-8")) if body else None
        else:
            data = body.decode("utf-8")
        if status >= 400:
            message = str(data)
            if isinstance(data, dict) and "error" in data:
                message = data["error"].get("message", message)
                if retry_after is None and "retry_after" in data["error"]:
                    retry_after = float(data["error"]["retry_after"])
            raise ServiceError(status, message, retry_after=retry_after)
        return data

    async def _back_off(self, err: Exception, attempt: int) -> None:
        """Wait out a retryable failure — no answer, or 429/503 — on the
        shared full-jitter curve, the server's ``Retry-After`` hint winning;
        re-raise anything a retry cannot fix."""
        if isinstance(err, ServiceError) and err.status not in _RETRYABLE_STATUSES:
            raise err
        hint = getattr(err, "retry_after", None)
        await asyncio.sleep(self.backoff.delay(attempt, rng=self._rng, retry_after=hint))

    # -- API ----------------------------------------------------------------
    async def health(self) -> dict[str, Any]:
        return await self.request("GET", "/healthz")

    async def metrics(self) -> str:
        return await self.request("GET", "/metrics")

    async def list_sessions(self) -> list[str]:
        return (await self.request("GET", "/sessions"))["sessions"]

    async def create_session(self, **spec: Any) -> dict[str, Any]:
        return await self.request("POST", "/sessions", spec)

    async def status(self, session_id: str) -> dict[str, Any]:
        return await self.request("GET", f"/sessions/{session_id}")

    async def ask(self, session_id: str, n: int = 1) -> list[Suggestion]:
        data = await self.request("POST", f"/sessions/{session_id}/ask", {"n": n})
        return [Suggestion.from_dict(s) for s in data["suggestions"]]

    async def tell(self, session_id: str, report: TrialReport, retry: int = 0) -> dict[str, Any]:
        return await self.request("POST", f"/sessions/{session_id}/tell", report.to_dict(), retry=retry)

    async def tell_reliably(
        self,
        session_id: str,
        report: TrialReport,
        retries: int = 20,
    ) -> dict[str, Any]:
        """At-least-once tell with journal-side dedup = exactly-once record.

        Requires ``report.report_id``; retries connection-level failures
        (server down / restarting) and retryable statuses (429/503 from
        admission control or a transient store outage) through the shared
        full-jitter :class:`BackoffPolicy`, honouring server ``Retry-After``
        hints.
        """
        if report.report_id is None:
            raise WireError("tell_reliably needs a report with a report_id")
        last: Exception | None = None
        for attempt in range(retries + 1):
            try:
                return await self.tell(session_id, report, retry=attempt)
            except (ServiceError, *_CONNECTION_ERRORS) as err:
                last = err
                await self._back_off(err, attempt)
        raise ServiceError(503, f"tell not acknowledged after {retries + 1} attempts: {last}")

    async def step(self, session_id: str, n: int = 1) -> dict[str, Any]:
        return await self.request("POST", f"/sessions/{session_id}/step", {"n": n})

    async def complete(self, session_id: str) -> dict[str, Any]:
        return await self.request("POST", f"/sessions/{session_id}/complete")

    # -- convenience --------------------------------------------------------
    async def run_session(self, session_id: str, evaluate) -> dict[str, Any]:
        """Drive one session's full ask/evaluate/tell loop from the client.

        ``evaluate(config_dict) -> metrics dict`` runs locally. Each
        evaluation's report gets a fresh ``report_id``, minted once and
        kept across ``tell_reliably``'s retries, so the loop survives server
        restarts mid-campaign without duplicating or dropping trials. An
        ask id cannot name a report: ask ids restart at 0 with each server
        incarnation, so after a restart they repeat ids already journaled.
        """
        outage = 0  # consecutive failed polls; resets once the server answers
        while True:
            try:
                status = await self.status(session_id)
                if status["complete"]:
                    return status
                suggestions = await self.ask(session_id)
            except (ServiceError, *_CONNECTION_ERRORS) as err:
                if isinstance(err, ServiceError) and err.status == 400:  # completed concurrently
                    return await self.status(session_id)
                # Server down, restarting or shedding: durable sessions make
                # waiting out the outage the whole recovery protocol. Full-
                # jitter backoff keeps a fleet of waiting clients from
                # stampeding the server the instant it returns.
                await self._back_off(err, outage)
                outage += 1
                continue
            outage = 0
            for suggestion in suggestions:
                metrics = evaluate(suggestion.config)
                report = TrialReport(
                    config=suggestion.config,
                    metrics=metrics,
                    ask_id=suggestion.ask_id,
                    report_id=uuid.uuid4().hex,
                )
                await self.tell_reliably(session_id, report)
