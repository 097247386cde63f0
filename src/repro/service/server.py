"""A stdlib-only asyncio HTTP/1.1 server for the tuning service.

No web framework: ``asyncio.start_server`` plus a small, strict HTTP/1.1
request parser (request line, headers, ``Content-Length`` bodies,
keep-alive) — no new dependency, hundreds of concurrent connections, each
one asyncio task; blocking work is delegated to threads by
:class:`~repro.service.handlers.ServiceHandlers`.

A request is one pipeline, each decision written once: *frame* (read it;
the one path parse, whose route label admission needs) → *admit* (capacity,
queue, shed) → *resolve* (the ``_ROUTES`` row to its handler, or 404/405) →
*run* (a task that may outlive its response) → *respond* (the deadline, and
the one ``except``: :func:`~repro.service.wire.error_status`).

Durability note: the server itself holds **no** tuning state. Sessions
live in the :class:`~repro.core.journal.TrialStore`; killing the process
at any point and starting a new server over the same store resumes every
session on first touch.
"""

from __future__ import annotations

import asyncio
import re
import threading
import time
from functools import partial
from http import HTTPStatus
from typing import Any, Awaitable, Callable, Mapping

from ..core.journal import SESSION_ID_PATTERN, TransientStorageError
from ..exceptions import ReproError
from ..telemetry.spans import (
    EVENT_MARK,
    OpSpan,
    activate,
    bind_trace,
    current_trace_context,
    current_trace_id,
    deactivate,
    emit_event,
    parse_traceparent,
    span,
)
from ..telemetry.tracing import SessionTrace
from .handlers import TRACE_SAMPLE_EVERY, TRACE_TAIL_QUANTILE, ServiceHandlers
from .wire import dump_json, error_body, error_status, parse_json_body

__all__ = ["TuningServer", "serve"]

_MAX_HEADER_LINE = 16 * 1024
_MAX_BODY = 16 * 1024 * 1024
_SESSION_PATH = re.compile(rf"^/sessions/({SESSION_ID_PATTERN})(/[a-z]+)?$")

#: The route table: path shape -> (metrics label, {method: (``ServiceHandlers``
#: attribute, whether it takes the JSON body)}). A new endpoint is one row.
#: ``ID`` stands for any session id and is a legal one itself, so the only
#: path that equals a session row's key is one that carries a session id.
_ROUTES: Mapping[str, tuple[str, Mapping[str, tuple[str, bool]]]] = {
    "/healthz": ("healthz", {"GET": ("health", False)}),
    "/metrics": ("metrics", {"GET": ("metrics_text", False)}),
    "/debug/trace": ("debug.trace", {"GET": ("debug_trace", False)}),
    "/sessions": ("sessions", {"GET": ("list_sessions", False), "POST": ("create_session", True)}),
    "/sessions/ID": ("session.status", {"GET": ("status", False)}),
    "/sessions/ID/ask": ("session.ask", {"POST": ("ask", True)}),
    "/sessions/ID/tell": ("session.tell", {"POST": ("tell", True)}),
    "/sessions/ID/step": ("session.step", {"POST": ("step", True)}),
    "/sessions/ID/complete": ("session.complete", {"POST": ("complete", False)}),
}

#: Probes, scrapers and the trace reader bypass admission control: they must
#: keep working precisely when the service is saturated.
_EXEMPT = frozenset({"healthz", "metrics", "debug.trace"})


class _RequestSpans:
    """The span sink of one request. Its spans and events wait here until the
    server decides (:meth:`TuningServer._retain`) whether the tree enters the
    service trace's ring; an event is counted when it is emitted, kept or
    not. A worker thread of the request may record after the verdict (a
    deadline 503 leaves it running): those spans follow the verdict."""

    __slots__ = ("trace", "ops", "flagged", "keep", "_lock", "_token")

    def __init__(self, trace: SessionTrace) -> None:
        self.trace = trace
        self.ops: list[OpSpan] = []
        self.flagged = False  # a span closed with status "error", or a warning/error event
        self.keep: bool | None = None  # the verdict, once given
        self._lock = threading.Lock()

    def __enter__(self) -> "_RequestSpans":
        self._token = activate(self)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        deactivate(self._token)
        return False

    def record_op(self, op: OpSpan) -> None:
        severity = op.attributes.get(EVENT_MARK)
        if severity is not None:
            self.trace.metrics.inc(f"events.{op.name}")
        with self._lock:
            if self.keep is None:
                self.ops.append(op)
                self.flagged = self.flagged or op.status == "error" or severity in ("warning", "error")
                return
        if self.keep:
            self.trace.record_ops((op,))

    def settle(self, keep: bool) -> None:
        with self._lock:
            self.keep = keep
            if keep:
                self.trace.record_ops(self.ops)
            self.ops = []


class _HttpError(Exception):
    """Malformed connection framing: answered once, then the connection drops."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class TuningServer:
    """The asyncio tuning service bound to one handlers instance.

    Usage::

        server = TuningServer(handlers, host="127.0.0.1", port=0)
        await server.start()          # server.port holds the bound port
        ...
        await server.stop()           # graceful: drains, closes the store
    """

    def __init__(
        self,
        handlers: ServiceHandlers,
        host: str = "127.0.0.1",
        port: int = 8765,
        max_in_flight: int = 64,
        queue_depth: int = 128,
        request_timeout_s: float | None = 30.0,
        retry_after_s: float = 0.1,
        fault_hook: Any | None = None,
    ) -> None:
        if max_in_flight < 1:
            raise ReproError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if queue_depth < 0:
            raise ReproError(f"queue_depth must be >= 0, got {queue_depth}")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ReproError(f"request_timeout_s must be > 0 or None, got {request_timeout_s}")
        if retry_after_s < 0:
            raise ReproError(f"retry_after_s must be >= 0, got {retry_after_s}")
        self.handlers = handlers
        self.host = host
        self.port = port
        #: Admission control: at most ``max_in_flight`` requests execute
        #: concurrently; up to ``queue_depth`` more wait for a slot; beyond
        #: that the server sheds load with 429 + ``Retry-After`` instead of
        #: letting latency (and memory) grow without bound.
        self.max_in_flight = int(max_in_flight)
        self.queue_depth = int(queue_depth)
        #: Per-request deadline: a dispatch exceeding it answers 503 so a
        #: wedged store or optimizer cannot silently pin a connection.
        self.request_timeout_s = request_timeout_s
        #: The backoff hint (seconds) sent on 429/503 responses.
        self.retry_after_s = float(retry_after_s)
        #: Optional :class:`repro.chaos.ServerFaultHook` consulted once per
        #: accepted connection (chaos testing: resets / accept latency).
        self.fault_hook = fault_hook
        self._server: asyncio.base_events.Server | None = None
        # Event-loop-local: mutated only from connection tasks, no lock.
        self._in_flight = 0
        self._queued = 0
        self._draining = False
        self._capacity: asyncio.Semaphore | None = None
        self._idle: asyncio.Event | None = None

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> "TuningServer":
        if self._server is not None:
            raise ReproError("server already started")
        self._capacity = asyncio.Semaphore(self.max_in_flight)
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def is_ready(self) -> bool:
        """Readiness: started and not draining (liveness is answering at all)."""
        return self._server is not None and not self._draining

    async def stop(self, close_handlers: bool = True, drain_timeout_s: float = 5.0) -> None:
        """Graceful drain: stop accepting, let in-flight requests finish,
        close connections; optionally release resources.

        While draining, new requests on surviving keep-alive connections
        get 503 + ``Retry-After`` and ``/healthz?ready`` flips unready, so
        load balancers and clients move on before the listener vanishes.
        ``close_handlers=False`` leaves the store open — used by tests that
        restart a server over the same live store object.
        """
        if self._server is not None:
            self._draining = True
            with self.handlers.trace.activated():  # outside any request
                emit_event(
                    "service.drain",
                    message="server draining: in-flight requests finishing",
                    in_flight=self._in_flight,
                    queued=self._queued,
                )
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            if self._idle is not None and drain_timeout_s > 0:
                try:
                    await asyncio.wait_for(self._idle.wait(), timeout=drain_timeout_s)
                except asyncio.TimeoutError:
                    self.handlers.metrics.inc("service.drain.abandoned")
        if close_handlers:
            await self.handlers.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- connection handling -------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            if self.fault_hook is not None and not await self.fault_hook.on_connection():
                return  # injected connection fault: drop without answering
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                status, payload, content_type, extra = await self._serve_request(
                    method, path, headers, body
                )
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                await self._write_response(writer, status, payload, content_type, keep_alive, extra)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-request; nothing to answer
        except _HttpError as err:
            # Malformed framing: answer if the transport still works, then drop.
            try:
                await self._write_response(
                    writer, err.status, error_body(err.status, str(err)), "application/json", False
                )
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        try:
            request_line = await reader.readline()
        except (ValueError, ConnectionResetError):
            raise _HttpError(400, "request line too long") from None
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        try:
            method, target, _version = request_line.decode("latin-1").split()
        except ValueError:
            raise _HttpError(400, f"malformed request line {request_line!r}") from None
        headers: dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # over the StreamReader limit, which is above _MAX_HEADER_LINE
                raise _HttpError(400, "header line too long") from None
            if len(line) > _MAX_HEADER_LINE:
                raise _HttpError(400, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        if not length_text.isdecimal():  # 1*DIGIT: no sign, no text
            raise _HttpError(400, f"bad Content-Length {length_text!r}")
        length = int(length_text)
        if length > _MAX_BODY:
            raise _HttpError(413, f"body of {length} bytes exceeds limit {_MAX_BODY}")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
        keep_alive: bool,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        )
        for name, value in (extra_headers or {}).items():
            head += f"{name}: {value}\r\n"
        head += "\r\n"
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # -- the request pipeline: frame -> admit -> resolve -> run -> respond ------
    def _retry_headers(self) -> dict[str, str]:
        return {"Retry-After": f"{self.retry_after_s:g}"}

    def _shed(
        self, route: str, status: int, reason: str, message: str
    ) -> tuple[int, bytes, str, dict[str, str]]:
        """Refuse one request at the admission gate (429/503 + Retry-After)."""
        metrics = self.handlers.metrics
        metrics.inc("service.requests.shed")
        metrics.inc(f"http.request.status.{route}.{status}")
        with self.handlers.trace.activated():  # a shed request has no span tree
            emit_event(
                "service.overload",
                severity="warning",
                message=message,
                route=route,
                reason=reason,
                in_flight=self._in_flight,
                queued=self._queued,
            )
        return (*self._error(status, message), self._retry_headers())

    async def _serve_request(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, bytes, str, dict[str, str]]:
        """One request: admission control, trace binding, ``http.request``
        span, per-request deadline, span retention, route metrics.

        The inbound ``traceparent`` (if any) is bound, else the service
        trace's id, and the request's own span sink activated, so every span
        recorded while handling — including optimizer spans running in
        worker threads via ``asyncio.to_thread``, which copies this context —
        carries the caller's trace id and waits in the sink for
        :meth:`_retain`.
        """
        route, run = self._resolve(method, path, body)
        exempt = route in _EXEMPT
        if self._draining and not exempt:
            return self._shed(route, 503, "draining", "server is draining; retry later")
        acquired = False
        if not exempt and self._capacity is not None:
            if self._capacity.locked() and self._queued >= self.queue_depth:
                return self._shed(
                    route,
                    429,
                    "queue_full",
                    f"server at capacity ({self.max_in_flight} in flight, "
                    f"{self._queued} queued); retry later",
                )
            self._queued += 1
            self.handlers.metrics.set_gauge("http.requests.queued", self._queued)
            try:
                await self._capacity.acquire()
            finally:
                self._queued -= 1
                self.handlers.metrics.set_gauge("http.requests.queued", self._queued)
            acquired = True
        inbound = parse_traceparent(headers.get("traceparent"))
        metrics = self.handlers.metrics
        self._in_flight += 1
        if self._idle is not None:
            self._idle.clear()
        metrics.set_gauge("http.requests.in_flight", self._in_flight)
        spans = _RequestSpans(self.handlers.trace)
        t0 = time.perf_counter()
        with bind_trace(inbound or current_trace_context() or self.handlers.trace.trace_id), spans:
            with span("http.request", route=route, method=method) as op:
                # A task: overdue work outlives its 503 and keeps its slot.
                work = asyncio.ensure_future(run())
                work.add_done_callback(partial(self._release, acquired))
                status, payload, content_type = await self._respond(work)
                op.set(status=status)
        elapsed = time.perf_counter() - t0
        self._retain(spans, route, status, elapsed)
        metrics.inc("service.requests.total")
        if status >= 400:
            metrics.inc("service.requests.errors")
        metrics.observe("request.seconds", elapsed)
        metrics.observe(f"http.request.seconds.{route}", elapsed)
        metrics.inc(f"http.request.status.{route}.{status}")
        extra = self._retry_headers() if status in (429, 503) else {}
        return status, payload, content_type, extra

    def _retain(self, spans: _RequestSpans, route: str, status: int, elapsed: float) -> None:
        """Tail-based retention, decided once per request as its
        ``http.request`` span closes: keep the tree if the request failed (a
        5xx, or any span closed with an error) or warned (a warning or error
        event; info events follow the verdict), is at or above its route's
        p99 so far, is one of the route's first ``TRACE_SAMPLE_EVERY``, or is
        the route's every ``TRACE_SAMPLE_EVERY``-th (the healthy baseline);
        drop the rest. Read before this request's latency is observed."""
        latency = self.handlers.metrics.histogram(f"http.request.seconds.{route}")
        served = latency.count if latency is not None else 0
        keep = (
            status >= 500
            or spans.flagged
            or served < TRACE_SAMPLE_EVERY
            or served % TRACE_SAMPLE_EVERY == 0
            or elapsed >= latency.quantile(TRACE_TAIL_QUANTILE)
        )
        spans.settle(keep)
        self.handlers.metrics.inc("service.trace.requests_kept" if keep else "service.trace.requests_dropped")

    def _release(self, acquired: bool, work: "asyncio.Future[Any]") -> None:
        """The work has ended — answered or overdue: give its slot back."""
        if not work.cancelled():
            work.exception()  # consumed: an overdue request has had its 503
        self._in_flight -= 1
        if self._in_flight == 0 and self._idle is not None:
            self._idle.set()
        self.handlers.metrics.set_gauge("http.requests.in_flight", self._in_flight)
        if acquired:
            self._capacity.release()

    def _resolve(
        self, method: str, target: str, body: bytes
    ) -> tuple[str, Callable[[], Awaitable[tuple[int, bytes, str]]]]:
        """The one path parse: the route's metrics label, and the coroutine
        function that answers the request from its row of the table."""
        path, _, query = target.partition("?")
        match = _SESSION_PATH.match(path)
        shape = f"/sessions/ID{match.group(2) or ''}" if match else path
        route, methods = _ROUTES.get(shape, ("unknown", None))

        async def run() -> tuple[int, bytes, str]:
            if methods is None:
                return self._error(404, f"no route for {method} {path}")
            if method not in methods:
                return self._error(405, f"{method} not allowed on {path}")
            name, takes_body = methods[method]
            # Looked up per request, so a handler patched on the instance or
            # the class (tests, the layer tracer) is the one that runs.
            handler = getattr(self.handlers, name)
            args: list[Any] = [match.group(1)] if match else []
            if takes_body:
                args.append(parse_json_body(body))
            result = await handler(*args)
            if isinstance(result, str):
                return 200, result.encode("utf-8"), "text/plain; version=0.0.4"
            status = 200
            if route == "healthz":
                result["ready"] = self.is_ready
                result["draining"] = self._draining
                # Liveness (bare GET) always answers 200 while the process can
                # serve at all; the readiness probe (?ready) goes 503 during
                # drain so load balancers stop routing before shutdown.
                if "ready" in query.split("&") and not self.is_ready:
                    status = 503
            return status, dump_json(result), "application/json"

        return route, run

    def _error(self, status: int, message: str) -> tuple[int, bytes, str]:
        retry_after = self.retry_after_s if status in (429, 503) else None
        body = error_body(status, message, trace_id=current_trace_id(), retry_after=retry_after)
        return status, body, "application/json"

    async def _respond(self, work: "asyncio.Future[tuple[int, bytes, str]]") -> tuple[int, bytes, str]:
        """The work's answer, or what its failure means on the wire. The
        deadline bounds the *response*: overdue work is cancelled at its next
        ``await``, but a worker thread it started runs on under its session
        lock (``ServiceHandlers._in_session``)."""
        metrics = self.handlers.metrics
        try:
            done, _ = await asyncio.wait([work], timeout=self.request_timeout_s)
            if not done:
                work.cancel()
                metrics.inc("service.requests.deadline_exceeded")
                raise asyncio.TimeoutError(f"request exceeded the {self.request_timeout_s:g}s deadline")
            return work.result()
        except Exception as err:  # noqa: BLE001 - the server must not die with a connection
            status, message = error_status(err), str(err)
            if status == 500:  # not a ReproError: a bug of ours, never the client's mistake
                metrics.inc("service.requests.crashed")
                message = f"{type(err).__name__}: {err}"
            elif isinstance(err, TransientStorageError):
                metrics.inc("service.requests.storage_transient")
            return self._error(status, message)


async def serve(
    store_path: str,
    host: str = "127.0.0.1",
    port: int = 8765,
    backend: str | None = None,
    step_workers: int = 4,
    ready: Callable[["TuningServer"], None] | None = None,
) -> None:
    """Open the store, start a :class:`TuningServer`, and serve until cancelled.

    The entry point behind ``repro serve``. ``ready`` is called with the
    started server (after the port is bound) — the CLI uses it to print
    the address, tests to discover an ephemeral port.
    """
    from ..core.manager import SessionManager
    from ..core.stores import open_store

    manager = SessionManager(open_store(store_path, backend=backend))
    handlers = ServiceHandlers(manager, step_workers=step_workers)
    server = TuningServer(handlers, host=host, port=port)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
