"""Route logic: the service API over one ``SessionManager``.

``ServiceHandlers`` owns everything the HTTP layer should not know about:

* the :class:`~repro.core.manager.SessionManager` (and through it the
  durable :class:`~repro.core.journal.TrialStore`);
* the table of *hosted* sessions — live ``TuningSession`` objects keyed by
  id, each guarded by an asyncio lock so interleaved ask/tell requests for
  one session serialise while different sessions proceed concurrently;
* **lazy resume**: a request touching a session this process does not
  host falls back to ``SessionManager.resume`` — this is the whole
  crash-recovery story from the client's point of view, a restarted
  server just works;
* **eviction on completion**: a session that spends its budget or is
  completed explicitly leaves the hosted table (histories and models are
  most of a server's memory); a later touch re-hosts it by lazy resume;
* the service's one worker pool, sized to the CPUs the process may run on
  (``_pool_size``), and one shared :class:`~repro.execution.ThreadedExecutor`
  of the same size reused by every session's server-side ``/step``
  evaluation (pool reuse per service, not per session);
* the per-service :class:`~repro.telemetry.MetricsRegistry` behind
  ``GET /metrics``, and the service trace behind ``GET /debug/trace``.

Blocking work (store fsyncs, SQLite commits, optimizer fits, simulated
benchmarks) runs on the worker pool through one hop,
:meth:`ServiceHandlers._offload`, so the event loop keeps serving other
sessions; never on asyncio's default executor, whose threads (and their
malloc arenas) grow with the load. ``ask``/``tell``/``step`` enter their
session through one helper (``_in_session``: hosted entry under its lock →
worker pool → finish if complete). Handlers raise and never choose a
status: :func:`repro.service.wire.error_status` decides that, once.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import resource
import sys
import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Callable, Mapping, TypeVar

from ..core.manager import SessionManager
from ..core.evaluation import Evaluator
from ..core.session import TuningSession
from ..exceptions import OptimizerError
from ..space.serialize import space_from_dict
from ..staticcheck import SpaceLintError
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracing import SessionTrace
from .wire import (
    CreateSessionRequest,
    WireError,
    parse_suggest_request,
    parse_trial_report,
)

__all__ = ["ServiceHandlers"]

_T = TypeVar("_T")

#: Spans the service-wide trace keeps (≈ 0.26 MB at 507 B each); the library
#: default is sized for one exported campaign. Only the span trees of the
#: requests the server keeps enter it (``TuningServer._retain``).
SERVICE_TRACE_SPANS = 512
#: A request at or above this quantile of its route's latency so far is kept.
TRACE_TAIL_QUANTILE = 0.99
#: A route's first this many requests are kept, then every this-many-th.
TRACE_SAMPLE_EVERY = 64


def _pool_size() -> int:
    """Workers of the service pool: the CPUs this process may run on (its
    affinity mask where the platform has one), at least 2 so that one long
    model fit cannot stall every other session's requests."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform (macOS, Windows)
        cores = os.cpu_count() or 1
    return max(2, cores)


@dataclass
class _Hosted:
    session: TuningSession
    evaluator: Evaluator | None = None
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class ServiceHandlers:
    def __init__(self, manager: SessionManager) -> None:
        self.manager = manager
        self.metrics = MetricsRegistry()
        #: The service-wide trace: the ``http.request`` span trees of the
        #: requests the server keeps (with the *caller's* trace id when the
        #: request carried a ``traceparent``) and the events the server emits
        #: outside any request (shed, drain). Share the service metrics
        #: registry so event counters land on ``/metrics``.
        self.trace = SessionTrace(name="service", max_ops=SERVICE_TRACE_SPANS)
        self.trace.metrics = self.metrics
        self._hosted: dict[str, _Hosted] = {}
        self._admission = asyncio.Lock()  # guards the hosted table, not sessions
        self.workers = _pool_size()
        self.metrics.set_gauge("service.pool.workers", self.workers)
        self._pool: ThreadPoolExecutor | None = None  # built on the first hop
        self._running: set[Future] = set()  # submitted to the pool, not yet returned
        self._executor = None  # shared ThreadedExecutor, built on first /step

    # -- the worker pool ----------------------------------------------------
    async def _offload(self, fn: Callable[..., _T], *args: Any) -> _T:
        """Run ``fn(*args)`` on the service's worker pool, in a copy of the
        caller's context as ``asyncio.to_thread`` would: the request's span
        sink and trace id reach the spans the worker records. The time the
        call waits for a worker is observed as ``service.pool.wait.seconds``."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.workers, thread_name_prefix="repro-service")
        context = contextvars.copy_context()
        submitted = time.perf_counter()

        def run() -> _T:
            self.metrics.observe("service.pool.wait.seconds", time.perf_counter() - submitted)
            return context.run(fn, *args)

        future = self._pool.submit(run)
        self._running.add(future)
        future.add_done_callback(self._running.discard)
        return await asyncio.wrap_future(future)

    # -- hosting ------------------------------------------------------------
    async def _host(self, session_id: str) -> _Hosted:
        """Return the live session, lazily resuming it from the store."""
        entry = self._hosted.get(session_id)
        if entry is not None:
            return entry
        async with self._admission:
            entry = self._hosted.get(session_id)
            if entry is not None:
                return entry
            session = await self._offload(self.manager.resume, session_id)
            meta = await self._offload(self.manager.meta, session_id)
            entry = self._hosted[session_id] = _Hosted(session, self._target_evaluator(meta.extra))
            self.metrics.inc("service.sessions.resumed")
            self.metrics.set_gauge("service.sessions.hosted", len(self._hosted))
            return entry

    @asynccontextmanager
    async def _locked(self, session_id: str) -> AsyncIterator[_Hosted]:
        """The hosted session, under its lock. The request ahead in the
        queue may have completed and evicted it; an evicted entry must not
        be driven (a re-hosted twin may be journaling already), so the
        table is checked again once the lock is held."""
        while True:
            entry = await self._host(session_id)
            async with entry.lock:
                if self._hosted.get(session_id) is entry:
                    yield entry
                    return

    async def _in_session(
        self, session_id: str, work: Callable[[_Hosted], Any]
    ) -> tuple[_Hosted, Any, bool]:
        """Run ``work(entry)`` on the worker pool under the session's lock,
        then stop hosting the session if that spent its budget; returns
        ``(entry, result, complete)``. The lock bounds the *session*: a
        request cancelled (deadline) while the thread runs keeps it until the
        thread has returned, so a retry never enters the optimizer beside it."""
        async with self._locked(session_id) as entry:
            thread = asyncio.ensure_future(self._offload(work, entry))
            try:
                result = await asyncio.shield(thread)
            except asyncio.CancelledError:
                await asyncio.wait([thread])
                thread.exception()  # consumed: nobody is left to answer with it
                raise
            complete = entry.session.is_complete
            if complete:
                await self._finish(entry, session_id)
        return entry, result, complete

    async def _finish(self, entry: _Hosted, session_id: str) -> None:
        """Mark a session completed and stop hosting it (entry lock held).

        Last chance to make every acknowledged trial durable: spilled
        records must land before completion is acknowledged and the only
        copy dropped. ``manager.complete`` is idempotent, so a duplicate
        retry of the final tell safely re-hosts and re-runs all of it.
        """
        if entry.session.spilled_count:
            await self._offload(entry.session.flush_spill)
        await self._offload(self.manager.complete, session_id)
        async with self._admission:
            self._hosted.pop(session_id, None)
            self.metrics.set_gauge("service.sessions.hosted", len(self._hosted))

    @staticmethod
    def _target_evaluator(extra: Mapping[str, Any]) -> Evaluator | None:
        spec = extra.get("target")
        if not spec:
            return None
        from ..targets import target_spec  # deferred: service core stays sysim-free

        evaluator, _space, _objective = target_spec(spec)
        return evaluator

    def _shared_executor(self):
        # Not the service pool: a /step holds a service worker while it waits
        # on its evaluations, so two concurrent /steps in one bounded pool
        # could each wait on evaluations queued behind the other.
        if self._executor is None:
            from ..execution import ThreadedExecutor

            self._executor = ThreadedExecutor(max_workers=self.workers)
        return self._executor

    # -- endpoints ----------------------------------------------------------
    async def health(self) -> dict[str, Any]:
        return {"ok": True, "sessions_hosted": len(self._hosted)}

    async def metrics_text(self) -> str:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
        self.metrics.set_gauge("service.process.peak_rss_bytes", peak * (1 if sys.platform == "darwin" else 1024))
        return self.metrics.to_prometheus()

    async def debug_trace(self) -> dict[str, Any]:
        """The kept request trees and the server's events, as a schema-3 trace (``repro trace`` reads it)."""
        return self.trace.to_dict()

    async def list_sessions(self) -> dict[str, Any]:
        ids = await self._offload(self.manager.list_sessions)
        return {"sessions": ids}

    async def create_session(self, body: Mapping[str, Any]) -> dict[str, Any]:
        req = CreateSessionRequest.from_dict(body)
        if req.session_id and req.resume and await self._offload(self.manager.exists, req.session_id):
            entry = await self._host(req.session_id)
            return {
                "session_id": req.session_id,
                "resumed": True,
                "n_trials": len(entry.session.optimizer.history),
            }

        evaluator = None
        objectives = list(req.objectives)
        if req.target is not None:
            from ..targets import target_spec

            evaluator, space, objective = target_spec(req.target)
            if not objectives:
                objectives = [{"name": objective.name, "minimize": objective.minimize}]
        else:
            space = space_from_dict(req.space)
        def _create() -> TuningSession:
            with warnings.catch_warnings():
                # Lint findings travel in the response body, not the server log.
                warnings.simplefilter("ignore", UserWarning)
                return self.manager.create(
                    space,
                    optimizer=req.optimizer,
                    objectives=objectives or None,
                    max_trials=req.max_trials,
                    max_cost=req.max_cost,
                    seed=req.seed,
                    optimizer_options=req.optimizer_options,
                    session_id=req.session_id,
                    evaluator=evaluator,
                    extra={"target": req.target} if req.target is not None else {},
                    strict=req.strict,
                    lint_ignore=req.lint_ignore,
                )

        try:
            session = await self._offload(_create)
        except SpaceLintError:
            self.metrics.inc("service.sessions.lint_rejected")
            raise
        async with self._admission:
            self._hosted[session.session_id] = _Hosted(session, evaluator)
            self.metrics.set_gauge("service.sessions.hosted", len(self._hosted))
        self.metrics.inc("service.sessions.created")
        out: dict[str, Any] = {"session_id": session.session_id, "resumed": False, "n_trials": 0}
        if session.lint_report is not None and not session.lint_report.clean:
            self.metrics.inc("service.sessions.lint_findings", len(session.lint_report.active))
            out["lint"] = session.lint_report.to_dict()
        return out

    async def status(self, session_id: str) -> dict[str, Any]:
        return await self._offload(self.manager.status, session_id)

    def _absorb_surrogate_stats(self, session: TuningSession) -> None:
        """Register the optimizer's surrogate counters as gauges (GP fit
        stats, forest fit/predict timings, pending fantasies, …)."""
        stats = getattr(session.optimizer, "surrogate_stats", None)
        if stats is not None:
            self.metrics.absorb(stats(), "surrogate")

    async def ask(self, session_id: str, body: Mapping[str, Any]) -> dict[str, Any]:
        request = parse_suggest_request(body)
        entry, suggestions, _ = await self._in_session(session_id, lambda e: e.session.ask(request))
        self.metrics.inc("service.asks", len(suggestions))
        if request.n > 1:
            self.metrics.inc("service.asks.batched")
        self._absorb_surrogate_stats(entry.session)
        self.metrics.observe("suggest.seconds", entry.session.last_suggest_latency_s)
        return {
            "session_id": session_id,
            "suggestions": [s.to_dict() for s in suggestions],
        }

    async def tell(self, session_id: str, body: Mapping[str, Any]) -> dict[str, Any]:
        report = parse_trial_report(body)
        _, (trial, duplicate), complete = await self._in_session(
            session_id, lambda e: e.session.tell(report)
        )
        self.metrics.inc("service.trials.duplicates" if duplicate else "service.trials.total")
        return {
            "session_id": session_id,
            "trial_id": trial.trial_id,
            "duplicate": duplicate,
            "status": trial.status.value,
            "complete": complete,
        }

    async def step(self, session_id: str, body: Mapping[str, Any]) -> dict[str, Any]:
        """Server-side closed loop: evaluate the next ``n`` trials here.

        Only sessions created with a ``target`` spec (registered simulated
        system) can step — client-defined spaces have no server-side
        evaluator. Evaluations share the service-wide thread pool.
        """
        n = parse_suggest_request(body).n
        executor = self._shared_executor()

        def _run_steps(entry: _Hosted) -> list[int]:
            session = entry.session
            if entry.evaluator is None:
                raise WireError(
                    f"session {session_id!r} has no server-side evaluator (created "
                    "without a 'target' spec); drive it via /ask and /tell"
                )
            from ..targets import refuse_fidelity_optimizer  # deferred: service core stays sysim-free

            refuse_fidelity_optimizer(session.optimizer)
            if session.is_complete:
                raise OptimizerError(f"session {session_id!r} is complete")
            want = min(n, session.max_trials - len(session.optimizer.history))
            return [t.trial_id for t in session.run_batch(executor, entry.evaluator, want)]

        entry, trial_ids, complete = await self._in_session(session_id, _run_steps)
        self.metrics.inc("service.trials.total", len(trial_ids))
        self.metrics.inc("service.steps", len(trial_ids))
        self._absorb_surrogate_stats(entry.session)
        return {"session_id": session_id, "trial_ids": trial_ids, "complete": complete}

    async def complete(self, session_id: str) -> dict[str, Any]:
        if session_id in self._hosted:
            async with self._locked(session_id) as entry:
                await self._finish(entry, session_id)
        else:  # nothing of it in memory: no need to resume it first
            await self._offload(self.manager.complete, session_id)
        return {"session_id": session_id, "status": "completed"}

    # -- lifecycle ----------------------------------------------------------
    async def close(self) -> None:
        """Release the evaluation pool, the store and the worker pool, once the
        work still on the pool has returned (a request past its deadline
        leaves its worker running); the loop serves on while it waits.
        Closing again is harmless: its hops find a fresh pool, release it."""
        # Their failures were the overdue requests' to report; none is left to answer.
        await asyncio.gather(*map(asyncio.wrap_future, list(self._running)), return_exceptions=True)
        if self._executor is not None:
            await self._offload(self._executor.shutdown)
            self._executor = None
        self._hosted.clear()
        await self._offload(self.manager.close)
        self._pool.shutdown(wait=False)  # idle: everything submitted has returned
        self._pool = None
