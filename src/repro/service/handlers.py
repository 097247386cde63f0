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
* one shared :class:`~repro.execution.ThreadedExecutor` reused by every
  session's server-side ``/step`` evaluation (pool reuse per service, not
  per session);
* the per-service :class:`~repro.telemetry.MetricsRegistry` behind
  ``GET /metrics``, and the service trace behind ``GET /debug/trace``.

Blocking work (store fsyncs, SQLite commits, optimizer fits, simulated
benchmarks) runs in worker threads via ``asyncio.to_thread`` so the event
loop keeps serving other sessions. ``ask``/``tell``/``step`` enter their
session through one helper (``_in_session``: hosted entry under its lock →
worker thread → finish if complete). Handlers raise and never choose a
status: :func:`repro.service.wire.error_status` decides that, once.
"""

from __future__ import annotations

import asyncio
import resource
import sys
import warnings
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Callable, Mapping

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

#: Spans the service-wide trace keeps (≈ 0.26 MB at 507 B each); the library
#: default is sized for one exported campaign. Only the span trees of the
#: requests the server keeps enter it (``TuningServer._retain``).
SERVICE_TRACE_SPANS = 512
#: A request at or above this quantile of its route's latency so far is kept.
TRACE_TAIL_QUANTILE = 0.99
#: A route's first this many requests are kept, then every this-many-th.
TRACE_SAMPLE_EVERY = 64


@dataclass
class _Hosted:
    session: TuningSession
    evaluator: Evaluator | None = None
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class ServiceHandlers:
    def __init__(self, manager: SessionManager, step_workers: int = 4) -> None:
        self.manager = manager
        self.metrics = MetricsRegistry()
        #: The service-wide trace: the ``http.request`` span trees of the
        #: requests the server keeps (with the *caller's* trace id when the
        #: request carried a ``traceparent``) and the events the server emits
        #: outside any request (shed, drain). Share the service metrics
        #: registry so event counters land on ``/metrics``.
        self.trace = SessionTrace(name="service", max_ops=SERVICE_TRACE_SPANS)
        self.trace.metrics = self.metrics
        self.step_workers = int(step_workers)
        self._hosted: dict[str, _Hosted] = {}
        self._admission = asyncio.Lock()  # guards the hosted table, not sessions
        self._executor = None  # shared ThreadedExecutor, built on first /step

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
            session = await asyncio.to_thread(self.manager.resume, session_id)
            meta = await asyncio.to_thread(self.manager.meta, session_id)
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
        """Run ``work(entry)`` on a worker thread under the session's lock,
        then stop hosting the session if that spent its budget; returns
        ``(entry, result, complete)``. The lock bounds the *session*: a
        request cancelled (deadline) while the thread runs keeps it until the
        thread has returned, so a retry never enters the optimizer beside it."""
        async with self._locked(session_id) as entry:
            thread = asyncio.ensure_future(asyncio.to_thread(work, entry))
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
            await asyncio.to_thread(entry.session.flush_spill)
        await asyncio.to_thread(self.manager.complete, session_id)
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
        if self._executor is None:
            from ..execution import ThreadedExecutor

            self._executor = ThreadedExecutor(max_workers=self.step_workers)
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
        ids = await asyncio.to_thread(self.manager.list_sessions)
        return {"sessions": ids}

    async def create_session(self, body: Mapping[str, Any]) -> dict[str, Any]:
        req = CreateSessionRequest.from_dict(body)
        if req.session_id and req.resume and await asyncio.to_thread(self.manager.exists, req.session_id):
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
            session = await asyncio.to_thread(_create)
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
        return await asyncio.to_thread(self.manager.status, session_id)

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
            await asyncio.to_thread(self.manager.complete, session_id)
        return {"session_id": session_id, "status": "completed"}

    # -- lifecycle ----------------------------------------------------------
    async def close(self) -> None:
        """Release the evaluation pool and the store."""
        if self._executor is not None:
            await asyncio.to_thread(self._executor.shutdown)
            self._executor = None
        self._hosted.clear()
        await asyncio.to_thread(self.manager.close)
