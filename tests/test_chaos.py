"""Deterministic fault injection (`repro.chaos`) and end-to-end resilience.

Covers the fault-plan determinism contract, the FaultyStore behaviours,
the session spill buffer, optimizer degradation, the shared backoff /
circuit-breaker helpers, server admission control + drain, and the chaos
acceptance campaign: >= 20 concurrent sessions under a seeded fault plan
(store faults + connection resets + one server kill) finishing with no
lost or duplicated trials and replay-clean journals on both durable
backends.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.chaos import (
    ClientFaultTransport,
    FaultInjector,
    FaultPlan,
    FaultRule,
    FaultyStore,
    ServerFaultHook,
    chaotic_evaluator,
)
from repro.core.codec import TrialReport
from repro.core.journal import StorageError, TransientStorageError
from repro.core.manager import SessionManager
from repro.core.optimizer import Objective
from repro.core.stores import JsonJournalStore, MemoryTrialStore, SqliteTrialStore
from repro.exceptions import ReproError, SystemCrashError
from repro.optimizers import (
    ConstrainedBayesianOptimizer,
    FidelityLevel,
    GaussianProcessRegressor,
    MultiFidelityBO,
    MultiTaskOptimizer,
    ParEGOOptimizer,
    RandomForestRegressor,
    StructuredBayesianOptimizer,
)
from repro.optimizers.bo import BayesianOptimizer
from repro.optimizers.smac import SMACOptimizer
from repro.resilience import BackoffPolicy, CircuitBreaker, CircuitOpenError
from repro.service.client import ServiceClient, ServiceError
from repro.service.handlers import ServiceHandlers
from repro.service.server import TuningServer
from repro.space import ConfigurationSpace, FloatParameter, IntegerParameter
from repro.space.serialize import space_to_dict


def run(coro):
    return asyncio.run(coro)


def small_space(seed: int = 0) -> ConfigurationSpace:
    space = ConfigurationSpace("chaos", seed=seed)
    space.add(FloatParameter("x", -2.0, 2.0, default=0.0))
    space.add(IntegerParameter("n", 1, 8, default=2))
    return space


def small_space_spec() -> dict:
    return space_to_dict(small_space())


def evaluate(config) -> dict:
    return {"loss": (config["x"] - 0.5) ** 2 + 0.1 * config["n"]}


def simple_meta_dict() -> dict:
    return dict(
        space=small_space_spec(),
        optimizer="random",
        max_trials=8,
        objectives=[{"name": "loss", "minimize": True}],
        seed=7,
    )


# ---------------------------------------------------------------------------
# FaultPlan / FaultInjector determinism
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        plan = FaultPlan(seed=42, rules=[FaultRule(site="store.append", kind="error", rate=0.3)])
        first = [d.kind if d else None for d in plan.schedule("store.append", "s1", 64)]
        second = [d.kind if d else None for d in plan.schedule("store.append", "s1", 64)]
        assert first == second
        assert any(k == "error" for k in first)  # rate 0.3 over 64 draws fires
        other_seed = FaultPlan(seed=43, rules=plan.rules)
        assert first != [
            d.kind if d else None for d in other_seed.schedule("store.append", "s1", 64)
        ]

    def test_schedule_matches_live_injector(self):
        plan = FaultPlan(seed=9, rules=[FaultRule(site="client.request", kind="reset", rate=0.5)])
        injector = plan.injector()
        live = [injector.decide("client.request", "/tell") for _ in range(32)]
        assert [d.index if d else None for d in live] == [
            d.index if d else None for d in plan.schedule("client.request", "/tell", 32)
        ]

    def test_keys_are_independent_of_interleaving(self):
        plan = FaultPlan(seed=5, rules=[FaultRule(site="store.append", kind="error", rate=0.4)])
        a, b = plan.injector(), plan.injector()
        for _ in range(20):  # a: strict alternation
            a.decide("store.append", "s1")
            a.decide("store.append", "s2")
        for _ in range(20):  # b: all of s2 first, then all of s1
            b.decide("store.append", "s2")
        for _ in range(20):
            b.decide("store.append", "s1")
        assert a.canonical_log() == b.canonical_log()

    def test_window_and_max_fires(self):
        plan = FaultPlan(
            seed=0,
            rules=[FaultRule(site="store.append", kind="error", rate=1.0, start=2, stop=6, max_fires=2)],
        )
        fired = [d.index for d in plan.schedule("store.append", "s", 10) if d is not None]
        assert fired == [2, 3]  # window opens at 2, max_fires caps at 2

    def test_invalid_rules_rejected(self):
        with pytest.raises(ReproError):
            FaultRule(site="s", kind="meltdown")
        with pytest.raises(ReproError):
            FaultRule(site="s", kind="error", rate=1.5)
        with pytest.raises(ReproError):
            FaultRule(site="s", kind="error", start=4, stop=2)


# ---------------------------------------------------------------------------
# FaultyStore
# ---------------------------------------------------------------------------
def _make_inner(backend: str, tmp_path):
    if backend == "json":
        return JsonJournalStore(tmp_path / "journal", fsync=False)
    return SqliteTrialStore(tmp_path / "trials.sqlite")


def _meta(session_id="s1"):
    from repro.core.journal import SessionMeta

    return SessionMeta(
        session_id=session_id,
        space=small_space_spec(),
        optimizer={"name": "random", "seed": 0, "options": {}},
        objectives=[{"name": "loss", "minimize": True}],
        max_trials=10,
    )


def _record(i: int, report_id: str | None = None) -> dict:
    rec = {
        "version": 2,
        "trial_id": 999,
        "config": {"x": 0.1 * i, "n": 1},
        "status": "succeeded",
        "metrics": {"loss": float(i)},
        "cost": 1.0,
        "fidelity": None,
        "context": {},
    }
    if report_id is not None:
        rec["report_id"] = report_id
    return rec


@pytest.mark.parametrize("backend", ["json", "sqlite"])
class TestFaultyStore:
    def test_error_leaves_journal_untouched(self, backend, tmp_path):
        plan = FaultPlan(seed=1, rules=[FaultRule(site="store.append", kind="error", stop=1)])
        store = FaultyStore(_make_inner(backend, tmp_path), plan.injector())
        store.create_session(_meta())
        with pytest.raises(TransientStorageError):
            store.append_trial("s1", _record(0))
        assert len(store.inner.load_trials("s1")) == 0  # as if never attempted
        assert store.append_trial("s1", _record(0)).trial_id == 0

    def test_ack_lost_then_retry_dedups(self, backend, tmp_path):
        plan = FaultPlan(seed=1, rules=[FaultRule(site="store.append", kind="ack_lost", stop=1)])
        store = FaultyStore(_make_inner(backend, tmp_path), plan.injector())
        store.create_session(_meta())
        with pytest.raises(TransientStorageError):
            store.append_trial("s1", _record(0, report_id="r-0"))
        # The write landed; the retry must dedup to the same trial id.
        result = store.append_trial("s1", _record(0, report_id="r-0"))
        assert result.duplicate and result.trial_id == 0
        assert len(store.inner.load_trials("s1")) == 1

    def test_read_and_meta_faults_are_transient(self, backend, tmp_path):
        plan = FaultPlan(
            seed=1,
            rules=[
                FaultRule(site="store.read", kind="error", stop=1),
                FaultRule(site="store.meta", kind="error", stop=1),
            ],
        )
        store = FaultyStore(_make_inner(backend, tmp_path), plan.injector())
        store.create_session(_meta())
        with pytest.raises(TransientStorageError):
            store.load_trials("s1")
        with pytest.raises(TransientStorageError):
            store.get_session("s1")
        assert store.load_trials("s1") == []
        assert store.get_session("s1").session_id == "s1"

    def test_transparent_with_empty_plan(self, backend, tmp_path):
        store = FaultyStore(_make_inner(backend, tmp_path), FaultPlan(seed=0).injector())
        store.create_session(_meta())
        for i in range(3):
            assert store.append_trial("s1", _record(i)).trial_id == i
        assert len(store.load_trials("s1")) == 3
        assert [r["trial_id"] for r in store.load_trials("s1")] == [0, 1, 2]
        assert store.list_sessions() == ["s1"]


def test_torn_append_is_repaired_on_recovery(tmp_path):
    plan = FaultPlan(seed=1, rules=[FaultRule(site="store.append", kind="torn", stop=1)])
    inner = JsonJournalStore(tmp_path / "journal", fsync=False)
    store = FaultyStore(inner, plan.injector())
    store.create_session(_meta())
    with pytest.raises(TransientStorageError):
        store.append_trial("s1", _record(0))
    raw = (tmp_path / "journal" / "s1.journal.jsonl").read_bytes()
    assert raw and not raw.endswith(b"\n")  # the torn tail is on disk
    assert store.load_trials("s1") == []  # recovery discards it
    assert store.append_trial("s1", _record(0)).trial_id == 0
    assert [r["trial_id"] for r in store.load_trials("s1")] == [0]


def test_chaotic_evaluator_crash_and_noise():
    plan = FaultPlan(
        seed=2,
        rules=[
            FaultRule(site="evaluator.run", kind="crash", stop=1),
            FaultRule(site="evaluator.run", kind="noise", start=1, stop=2, magnitude=1.0),
        ],
    )
    wrapped = chaotic_evaluator(lambda cfg: {"loss": 2.0}, plan.injector(), key="s1")
    with pytest.raises(SystemCrashError):
        wrapped({})
    assert wrapped({}) == {"loss": 4.0}  # scaled by 1 + magnitude
    assert wrapped({}) == {"loss": 2.0}  # past the window: untouched


# ---------------------------------------------------------------------------
# Session spill buffer
# ---------------------------------------------------------------------------
class TestSpillBuffer:
    def _session(self, tmp_path, rules):
        plan = FaultPlan(seed=11, rules=rules)
        inner = JsonJournalStore(tmp_path / "journal", fsync=False)
        store = FaultyStore(inner, plan.injector())
        manager = SessionManager(store)
        session = manager.create(
            small_space(),
            optimizer="random",
            objectives=[{"name": "loss", "minimize": True}],
            max_trials=8,
            seed=3,
            session_id="spill",
            lint=False,
        )
        return manager, store, session

    def _tell(self, session, i):
        [suggestion] = session.ask(1)
        report = TrialReport(
            config=suggestion.config,
            metrics=evaluate(suggestion.config),
            ask_id=suggestion.ask_id,
            report_id=f"r-{i}",
        )
        return session.tell(report)

    def test_transient_failures_spill_then_flush_in_order(self, tmp_path):
        # Appends 1 and 2 fail; the tells still succeed (spilled), and the
        # next healthy append flushes everything in order.
        rules = [FaultRule(site="store.append", kind="error", start=1, stop=3)]
        manager, store, session = self._session(tmp_path, rules)
        for i in range(4):
            trial, duplicate = self._tell(session, i)
            assert trial.trial_id == i and not duplicate
        assert session.spilled_count == 0  # tell 3 flushed the buffer
        assert [r["trial_id"] for r in store.inner.load_trials("spill")] == [0, 1, 2, 3]
        report = manager.replay_session("spill")
        assert report.ok, report.format()
        manager.close()

    def test_flush_spill_drains_with_retries(self, tmp_path):
        rules = [FaultRule(site="store.append", kind="error", start=1, stop=3)]
        manager, store, session = self._session(tmp_path, rules)
        self._tell(session, 0)
        self._tell(session, 1)  # spilled (append index 1 faults)
        assert session.spilled_count == 1
        # append index 2 still faults, 3 succeeds: one retry drains it.
        assert session.flush_spill(retries=3, policy=BackoffPolicy(base_s=0.0)) == 1
        assert session.spilled_count == 0
        assert len(store.inner.load_trials("spill")) == 2
        manager.close()

    def test_flush_spill_raises_when_store_stays_down(self, tmp_path):
        rules = [FaultRule(site="store.append", kind="error", start=1)]
        manager, _store, session = self._session(tmp_path, rules)
        self._tell(session, 0)
        self._tell(session, 1)  # spilled, and the store never recovers
        with pytest.raises(TransientStorageError):
            session.flush_spill(retries=2, policy=BackoffPolicy(base_s=0.0))
        manager.close()

    def test_spill_limit_applies_backpressure(self, tmp_path):
        rules = [FaultRule(site="store.append", kind="error", start=1)]
        manager, _store, session = self._session(tmp_path, rules)
        session.spill_limit = 1
        self._tell(session, 0)
        self._tell(session, 1)  # first spill: within the limit
        with pytest.raises(TransientStorageError):
            self._tell(session, 2)  # second spill: over the limit, propagate
        manager.close()

    def test_ack_lost_spill_resolves_via_dedup(self, tmp_path):
        # The append landed but the ack was dropped: the flush retry hits
        # journal-level report-id dedup and keeps ids contiguous.
        rules = [FaultRule(site="store.append", kind="ack_lost", start=1, stop=2)]
        manager, store, session = self._session(tmp_path, rules)
        for i in range(3):
            self._tell(session, i)
        assert session.spilled_count == 0
        assert [r["trial_id"] for r in store.inner.load_trials("spill")] == [0, 1, 2]
        assert manager.replay_session("spill").ok
        manager.close()


# ---------------------------------------------------------------------------
# Optimizer degradation
# ---------------------------------------------------------------------------
TWO_OBJECTIVES = [Objective("score"), Objective("cost")]

#: Every class built on the shared model-based loop, ready for the model phase.
MODEL_BASED = {
    "BayesianOptimizer": lambda: BayesianOptimizer(small_space(), n_init=2, seed=5),
    "SMACOptimizer": lambda: SMACOptimizer(small_space(), n_init=2, seed=5),
    "ConstrainedBayesianOptimizer": lambda: ConstrainedBayesianOptimizer(small_space(), ["c"], n_init=2, seed=5),
    "ParEGOOptimizer": lambda: ParEGOOptimizer(small_space(), TWO_OBJECTIVES, n_init=2, seed=5),
    "StructuredBayesianOptimizer": lambda: StructuredBayesianOptimizer(small_space(), n_init=2, seed=5),
    "MultiFidelityBO": lambda: MultiFidelityBO(
        small_space(), [FidelityLevel(1.0, 1.0), FidelityLevel(4.0, 3.0)], n_init=2, seed=5
    ),
    "MultiTaskOptimizer": lambda: MultiTaskOptimizer(small_space(), TWO_OBJECTIVES, n_init=2, seed=5),
}


class TestDegradedOptimizer:
    def _observe_init(self, opt, n):
        for i in range(n):
            opt.observe(opt.space.sample(opt.rng), {"score": float(i), "cost": float(n - i), "c": -1.0})

    @pytest.mark.parametrize("cls", sorted(MODEL_BASED))
    def test_fit_failure_degrades_to_random(self, cls, monkeypatch):
        opt = MODEL_BASED[cls]()
        self._observe_init(opt, 2)
        before = opt.state_digest_parts()

        def broken_fit(*args, **kwargs):
            raise ValueError("singular kernel matrix")

        for surrogate in (GaussianProcessRegressor, RandomForestRegressor):
            monkeypatch.setattr(surrogate, "fit", broken_fit)
        monkeypatch.setattr(RandomForestRegressor, "partial_fit", broken_fit)
        configs = opt.suggest(2)
        assert len(configs) == 2  # the campaign keeps going
        assert opt.surrogate_stats()["degraded_total"] >= 1
        assert opt.state_digest_parts() != before  # degradation is provenance-visible

    def test_programming_error_in_fit_hook_propagates(self):
        """Only numerical failures degrade; a bug must not become random search."""
        opt = MODEL_BASED["BayesianOptimizer"]()
        self._observe_init(opt, 2)

        def buggy_fit():
            raise TypeError("unsupported operand type(s)")

        opt._fit = buggy_fit
        with pytest.raises(TypeError):
            opt.suggest()
        assert opt.surrogate_stats()["degraded_total"] == 0

    def test_degraded_suggestions_are_deterministic(self):
        def make():
            opt = SMACOptimizer(small_space(), n_init=2, seed=9)
            self._observe_init(opt, 2)
            opt.model.fit = lambda *a, **k: (_ for _ in ()).throw(ValueError("boom"))
            opt.model.partial_fit = opt.model.fit
            return [c.as_dict() for c in opt.suggest(3)]

        assert make() == make()


# ---------------------------------------------------------------------------
# Backoff policy and circuit breaker
# ---------------------------------------------------------------------------
class TestBackoffPolicy:
    def test_ceiling_growth_and_cap(self):
        policy = BackoffPolicy(base_s=0.1, cap_s=1.0, multiplier=2.0)
        assert policy.ceiling(0) == pytest.approx(0.1)
        assert policy.ceiling(2) == pytest.approx(0.4)
        assert policy.ceiling(10) == 1.0  # capped

    def test_full_jitter_stays_under_ceiling(self):
        import random

        policy = BackoffPolicy(base_s=0.1, cap_s=1.0)
        rng = random.Random(0)
        delays = [policy.delay(3, rng=rng) for _ in range(64)]
        assert all(0.0 <= d <= policy.ceiling(3) for d in delays)
        assert len(set(delays)) > 1  # jittered, not constant

    def test_retry_after_hint_wins_and_is_clamped(self):
        policy = BackoffPolicy(base_s=0.1, cap_s=1.0)
        assert policy.delay(0, retry_after=0.7) == pytest.approx(0.7)
        assert policy.delay(0, retry_after=30.0) == 1.0  # clamped to cap
        assert policy.delay(0, retry_after=-1.0) == 0.0

    def test_invalid_policy_rejected(self):
        with pytest.raises(ReproError):
            BackoffPolicy(base_s=-1.0)
        with pytest.raises(ReproError):
            BackoffPolicy(multiplier=0.5)


class TestCircuitBreaker:
    def test_state_machine(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(failure_threshold=2, recovery_s=1.0, clock=lambda: clock["t"])
        assert breaker.allow() and breaker.state == breaker.CLOSED
        breaker.record_failure()
        assert breaker.state == breaker.CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == breaker.OPEN
        assert not breaker.allow()  # recovery window not elapsed
        err = breaker.reject()
        assert isinstance(err, CircuitOpenError) and isinstance(err, ConnectionError)
        clock["t"] = 1.5
        assert breaker.allow()  # half-open probe admitted
        assert breaker.state == breaker.HALF_OPEN
        assert not breaker.allow()  # only one probe at a time
        breaker.record_failure()
        assert breaker.state == breaker.OPEN  # probe failed: re-open
        clock["t"] = 3.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == breaker.CLOSED
        assert breaker.stats["opens"] == 2

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == breaker.CLOSED


# ---------------------------------------------------------------------------
# Server hardening: admission control, deadline, drain, healthz, fault hook
# ---------------------------------------------------------------------------
async def start_server(store, **kwargs) -> tuple[TuningServer, ServiceClient]:
    server = TuningServer(ServiceHandlers(SessionManager(store)), port=0, **kwargs)
    await server.start()
    return server, ServiceClient(server.host, server.port, timeout_s=10)


class TestServerHardening:
    def test_healthz_reports_readiness(self):
        async def main():
            server, client = await start_server(MemoryTrialStore())
            try:
                health = await client.health()
                assert health["ok"] and health["ready"] and not health["draining"]
                assert await client.request("GET", "/healthz?ready")
            finally:
                await server.stop()

        run(main())

    def test_draining_sheds_with_retry_after_and_unready(self):
        async def main():
            server, client = await start_server(MemoryTrialStore(), retry_after_s=0.25)
            try:
                server._draining = True
                with pytest.raises(ServiceError) as err:
                    await client.list_sessions()
                assert err.value.status == 503
                assert err.value.retry_after == pytest.approx(0.25)
                health = await client.health()  # liveness still answers 200
                assert not health["ready"] and health["draining"]
                with pytest.raises(ServiceError) as err:
                    await client.request("GET", "/healthz?ready")
                assert err.value.status == 503
            finally:
                server._draining = False
                await server.stop()

        run(main())

    def test_queue_overflow_sheds_429_with_retry_after(self):
        async def main():
            server, client = await start_server(
                MemoryTrialStore(), max_in_flight=1, queue_depth=0, retry_after_s=0.05
            )
            release = asyncio.Event()

            async def slow_list_sessions():
                await release.wait()
                return {"sessions": []}

            server.handlers.list_sessions = slow_list_sessions
            try:
                blocker = asyncio.create_task(client.list_sessions())
                await asyncio.sleep(0.05)  # let the blocker occupy the slot
                with pytest.raises(ServiceError) as err:
                    await client.list_sessions()
                assert err.value.status == 429
                assert err.value.retry_after == pytest.approx(0.05)
                release.set()
                assert await blocker == []
            finally:
                release.set()
                await server.stop()

        run(main())

    def test_request_deadline_maps_to_503(self):
        async def main():
            server, client = await start_server(MemoryTrialStore(), request_timeout_s=0.05)

            async def wedged_list_sessions():
                await asyncio.sleep(5.0)

            server.handlers.list_sessions = wedged_list_sessions
            try:
                with pytest.raises(ServiceError) as err:
                    await client.list_sessions()
                assert err.value.status == 503
                assert err.value.retry_after is not None
            finally:
                await server.stop()

        run(main())

    def test_session_lock_outlives_the_deadline(self):
        """The deadline bounds the response, the lock bounds the session: the
        overdue ask's worker thread keeps the session to itself until it has
        returned, so the client's 503-retry never runs beside it."""

        async def main():
            server, client = await start_server(MemoryTrialStore(), request_timeout_s=0.2)
            unretrieved = []
            asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: unretrieved.append(ctx))
            await client.create_session(session_id="s1", **simple_meta_dict())
            optimizer = server.handlers._hosted["s1"].session.optimizer
            suggest, calls, inside = optimizer.suggest, [], []

            def slow_first_suggest(n):
                inside.append(len(inside) + 1)
                assert inside[-1] == 1 + len(calls), "two threads inside one optimizer"
                if not calls:
                    time.sleep(0.6)
                try:
                    return suggest(n)
                finally:
                    calls.append(time.monotonic())

            optimizer.suggest = slow_first_suggest
            try:
                t0 = time.monotonic()
                with pytest.raises(ServiceError) as err:
                    await client.ask("s1", n=1)
                assert err.value.status == 503 and err.value.retry_after is not None
                assert time.monotonic() - t0 < 0.5  # answered at the deadline, not after the thread
                assert server._in_flight == 1  # the overdue work still holds its slot
                while True:  # the immediate retry, and its retries: waiting is cancellable
                    try:
                        [second] = await client.ask("s1", n=1)
                        break
                    except ServiceError as busy:
                        assert busy.status == 503
                assert len(calls) == 2 and calls[0] - t0 >= 0.6  # served only once the first left
                assert second.ask_id == 1  # the overdue ask took 0, alone; no waiter took any
                assert server._in_flight == 0
                # A failure nobody is left to answer with is consumed, not logged.
                optimizer.suggest = lambda n: time.sleep(0.4) or 1 / 0
                with pytest.raises(ServiceError) as err:
                    await client.ask("s1", n=1)
                assert err.value.status == 503
                stop = asyncio.create_task(server.stop(drain_timeout_s=5.0))
                await asyncio.sleep(0.05)
                assert not stop.done()  # the drain waits for the overdue thread too
                await stop
                assert server._in_flight == 0 and unretrieved == []
            finally:
                await server.stop()

        run(main())

    def test_transient_storage_maps_to_503_not_404(self):
        async def main():
            plan = FaultPlan(seed=4, rules=[FaultRule(site="store.meta", kind="error", stop=1)])
            store = FaultyStore(MemoryTrialStore(), plan.injector())
            server, client = await start_server(store)
            try:
                await client.create_session(session_id="s1", **simple_meta_dict())
                # The first status hits the injected meta fault: must be a
                # retryable 503 (the session exists!), and the retry works.
                with pytest.raises(ServiceError) as err:
                    await client.status("s1")
                assert err.value.status == 503
                assert (await client.status("s1"))["session_id"] == "s1"
            finally:
                await server.stop()

        run(main())

    def test_server_fault_hook_drops_connections(self):
        async def main():
            plan = FaultPlan(
                seed=6, rules=[FaultRule(site="server.connection", kind="reset", stop=1)]
            )
            hook = ServerFaultHook(plan.injector())
            server, client = await start_server(MemoryTrialStore(), fault_hook=hook)
            try:
                with pytest.raises((ConnectionError, OSError)):
                    await client.health()  # first connection dropped
                assert (await client.health())["ok"]  # second one serves
            finally:
                await server.stop()

        run(main())

    def test_graceful_stop_waits_for_in_flight(self):
        async def main():
            server, client = await start_server(MemoryTrialStore())
            release = asyncio.Event()
            served = asyncio.Event()

            async def slow_list_sessions():
                served.set()
                await release.wait()
                return {"sessions": []}

            server.handlers.list_sessions = slow_list_sessions
            pending = asyncio.create_task(client.list_sessions())
            await served.wait()
            stopper = asyncio.create_task(server.stop(drain_timeout_s=5.0))
            await asyncio.sleep(0.05)
            assert not stopper.done()  # drain is waiting on the in-flight request
            release.set()
            assert await pending == []
            await stopper

        run(main())


# ---------------------------------------------------------------------------
# Client resilience: retries, Retry-After, breaker, wire faults
# ---------------------------------------------------------------------------
class TestClientResilience:
    def test_tell_reliably_survives_injected_resets(self):
        async def main():
            store = MemoryTrialStore()
            server, clean = await start_server(store)
            plan = FaultPlan(
                seed=8, rules=[FaultRule(site="client.request", kind="reset", stop=2)]
            )
            faulty = ServiceClient(
                server.host,
                server.port,
                timeout_s=10,
                transport_faults=ClientFaultTransport(plan.injector()),
                backoff=BackoffPolicy(base_s=0.005, cap_s=0.05),
                backoff_seed=0,
            )
            try:
                await clean.create_session(session_id="s1", **simple_meta_dict())
                [suggestion] = await clean.ask("s1", n=1)
                report = TrialReport(
                    config=suggestion.config,
                    metrics=evaluate(suggestion.config),
                    ask_id=suggestion.ask_id,
                    report_id="r-0",
                )
                # First two tells reset on the wire; the third lands, once.
                ack = await faulty.tell_reliably("s1", report)
                assert ack["trial_id"] == 0 and not ack["duplicate"]
                assert len(store.load_trials("s1")) == 1
            finally:
                await server.stop()

        run(main())

    def test_tell_reliably_retries_on_503_with_retry_after(self):
        async def main():
            plan = FaultPlan(seed=4, rules=[FaultRule(site="store.meta", kind="error", start=2, stop=3)])
            store = FaultyStore(MemoryTrialStore(), plan.injector())
            server, client = await start_server(store)
            client.backoff = BackoffPolicy(base_s=0.005, cap_s=0.05)
            try:
                await client.create_session(session_id="s1", **simple_meta_dict())
                [suggestion] = await client.ask("s1", n=1)
                report = TrialReport(
                    config=suggestion.config,
                    metrics=evaluate(suggestion.config),
                    ask_id=suggestion.ask_id,
                    report_id="r-0",
                )
                ack = await client.tell_reliably("s1", report)
                assert ack["trial_id"] == 0
            finally:
                await server.stop()

        run(main())

    def test_breaker_opens_on_dead_server_and_fails_fast(self):
        async def main():
            import socket

            with socket.socket() as sock:  # a port nothing listens on
                sock.bind(("127.0.0.1", 0))
                dead_port = sock.getsockname()[1]
            clock = {"t": 0.0}
            breaker = CircuitBreaker(
                failure_threshold=1, recovery_s=10.0, clock=lambda: clock["t"]
            )
            client = ServiceClient("127.0.0.1", dead_port, timeout_s=0.2, breaker=breaker)
            with pytest.raises((ConnectionError, OSError)):
                await client.health()
            assert breaker.state == breaker.OPEN
            with pytest.raises(CircuitOpenError):  # fails fast, no I/O
                await client.health()
            assert breaker.stats["rejections"] >= 1

        run(main())

    def test_breaker_closes_after_successful_probe(self):
        async def main():
            clock = {"t": 0.0}
            breaker = CircuitBreaker(
                failure_threshold=1, recovery_s=1.0, clock=lambda: clock["t"]
            )
            server, client = await start_server(MemoryTrialStore())
            client.breaker = breaker
            try:
                breaker.record_failure()  # force-open
                assert breaker.state == breaker.OPEN
                clock["t"] = 2.0  # recovery window elapsed: probe allowed
                assert (await client.health())["ok"]
                assert breaker.state == breaker.CLOSED
            finally:
                await server.stop()

        run(main())


# ---------------------------------------------------------------------------
# Acceptance: concurrent chaos campaign with a server kill, then replay
# ---------------------------------------------------------------------------
N_SESSIONS = 20
TRIALS_PER_SESSION = 3


def _campaign_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        name="acceptance",
        rules=[
            FaultRule(site="store.append", kind="error", rate=0.10),
            FaultRule(site="store.append", kind="ack_lost", rate=0.05),
            FaultRule(site="store.meta", kind="error", rate=0.03),
            FaultRule(site="client.request", kind="reset", rate=0.08),
            FaultRule(site="server.connection", kind="reset", rate=0.05),
        ],
    )


@pytest.mark.parametrize("backend", ["json", "sqlite"])
def test_chaos_acceptance_campaign(backend, tmp_path):
    """>= 20 concurrent sessions under a seeded plan, one server kill and
    restart mid-campaign: every session completes with no lost/duplicated
    trials and every journal replays with zero divergences."""

    async def main():
        plan = _campaign_plan(seed=2026)
        injector = plan.injector()
        inner = _make_inner(backend, tmp_path)
        store = FaultyStore(inner, injector)
        hook = ServerFaultHook(injector)
        server = TuningServer(
            ServiceHandlers(SessionManager(store)), port=0, fault_hook=hook
        )
        await server.start()
        host, port = server.host, server.port
        backoff = BackoffPolicy(base_s=0.005, cap_s=0.1)

        admin = ServiceClient(host, port, timeout_s=10, backoff=backoff, backoff_seed=99)
        session_ids = [f"c-{i:02d}" for i in range(N_SESSIONS)]
        for i, sid in enumerate(session_ids):
            spec = simple_meta_dict()
            spec.update(seed=i, max_trials=TRIALS_PER_SESSION, session_id=sid)
            created = False
            for attempt in range(30):
                try:
                    await admin.create_session(**spec)
                    created = True
                    break
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    await asyncio.sleep(backoff.delay(attempt))
                except ServiceError as err:
                    if err.status not in (429, 503):
                        raise
                    await asyncio.sleep(backoff.delay(attempt, retry_after=err.retry_after))
            assert created, f"could not create {sid}"

        def slow_evaluate(config):
            time.sleep(0.003)  # keep the campaign in flight across the kill
            return evaluate(config)

        async def drive(i: int, sid: str):
            client = ServiceClient(
                host,
                port,
                timeout_s=10,
                transport_faults=ClientFaultTransport(injector),
                backoff=backoff,
                backoff_seed=i,
            )
            return await client.run_session(sid, slow_evaluate)

        tasks = [asyncio.create_task(drive(i, sid)) for i, sid in enumerate(session_ids)]

        # The kill: stop the server mid-campaign (store survives), then
        # bring a fresh server process-equivalent up on the same port.
        await asyncio.sleep(0.2)
        await server.stop(close_handlers=False, drain_timeout_s=0.5)
        server2 = TuningServer(
            ServiceHandlers(SessionManager(store)), host=host, port=port, fault_hook=hook
        )
        started = False
        for _ in range(50):
            try:
                await server2.start()
                started = True
                break
            except OSError:
                server2._server = None
                await asyncio.sleep(0.05)
        assert started, "could not rebind the restarted server"

        results = await asyncio.gather(*tasks)
        for status in results:
            assert status["complete"]
        await server2.stop(close_handlers=False)

        # Exactly-once + replay-clean, verified against the *inner* store
        # (no injected faults in the verification pass).
        verifier = SessionManager(inner)
        total_faults = len(injector.canonical_log())
        for sid in session_ids:
            records = inner.load_trials(sid)
            assert [r["trial_id"] for r in records] == list(range(TRIALS_PER_SESSION)), (
                f"{sid}: lost or duplicated trials: {[r['trial_id'] for r in records]}"
            )
            report = verifier.replay_session(sid)
            assert report.ok, f"{sid}: {report.format()}"
        assert total_faults > 0, "the plan injected nothing; the campaign proved nothing"
        verifier.close()

    run(main())


def test_same_seed_produces_identical_fault_logs(tmp_path):
    """Determinism acceptance: the same plan seed over the same per-key
    call sequences yields byte-identical canonical fault logs."""

    def campaign(root) -> list[tuple]:
        plan = FaultPlan(
            seed=77,
            rules=[
                FaultRule(site="store.append", kind="error", rate=0.2),
                FaultRule(site="store.append", kind="ack_lost", rate=0.1),
                FaultRule(site="evaluator.run", kind="crash", rate=0.15),
                FaultRule(site="evaluator.run", kind="noise", rate=0.1, magnitude=0.5),
            ],
        )
        injector = plan.injector()
        store = FaultyStore(JsonJournalStore(root, fsync=False), injector)
        manager = SessionManager(store)
        for s in range(6):
            sid = f"d-{s}"
            session = manager.create(
                small_space(),
                optimizer="random",
                objectives=[{"name": "loss", "minimize": True}],
                max_trials=4,
                seed=s,
                session_id=sid,
                lint=False,
            )
            evaluator = chaotic_evaluator(evaluate, injector, key=sid)
            for t in range(4):
                [suggestion] = session.ask(1)
                try:
                    metrics = evaluator(suggestion.config)
                    report = TrialReport(
                        config=suggestion.config,
                        metrics=metrics,
                        ask_id=suggestion.ask_id,
                        report_id=f"{sid}-{t}",
                    )
                except SystemCrashError:
                    report = TrialReport(
                        config=suggestion.config,
                        metrics={},
                        status="failed",
                        ask_id=suggestion.ask_id,
                        report_id=f"{sid}-{t}",
                    )
                session.tell(report)
            session.flush_spill(retries=10, policy=BackoffPolicy(base_s=0.0))
        manager.close()
        return injector.canonical_log()

    first = campaign(tmp_path / "run1")
    second = campaign(tmp_path / "run2")
    assert first == second
    assert len(first) > 0
