"""HTTP service tests: wire contract, concurrency, and the
kill-mid-campaign restart acceptance demo."""

from __future__ import annotations

import asyncio
import copy
import gc
import json
import os
import re
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import TrialReport
from repro.core.manager import SessionManager
from repro.core.stores import JsonJournalStore, MemoryTrialStore
from repro.exceptions import ReproError
from repro.service.client import ServiceClient, ServiceError
import repro.service.server as server_module
from repro.service.handlers import SERVICE_TRACE_SPANS, TRACE_SAMPLE_EVERY, ServiceHandlers
from repro.service.server import TuningServer
from repro.space import CategoricalParameter, ConfigurationSpace, FloatParameter, IntegerParameter, LinearConstraint
from repro.space.serialize import space_to_dict

from .conftest import assert_exposition_round_trips


def small_space_spec() -> dict:
    space = ConfigurationSpace("svc", seed=0)
    space.add(FloatParameter("x", -2.0, 2.0, default=0.0))
    space.add(IntegerParameter("n", 1, 8, default=2))
    return space_to_dict(space)


def evaluate(config) -> dict:
    return {"loss": (config["x"] - 0.5) ** 2 + 0.1 * config["n"]}


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


async def start_server(store) -> tuple[TuningServer, ServiceClient]:
    server = TuningServer(ServiceHandlers(SessionManager(store)), port=0)
    await server.start()
    return server, ServiceClient(server.host, server.port, timeout_s=10)


def run(coro):
    return asyncio.run(coro)


@pytest.mark.parametrize("setting", [
    {"max_in_flight": 0}, {"max_in_flight": -1}, {"queue_depth": -1},
    {"request_timeout_s": 0}, {"request_timeout_s": -1.0}, {"retry_after_s": -0.1},
], ids=lambda setting: "{}={}".format(*next(iter(setting.items()))))
def test_server_rejects_out_of_range_settings_at_construction(setting):
    """A zero semaphore wedges every request, a negative one only fails in
    ``start()``, ``queue_depth=-1`` sheds everything: all are a ReproError up front."""
    handlers = ServiceHandlers(SessionManager(MemoryTrialStore()))
    with pytest.raises(ReproError, match=next(iter(setting))):
        TuningServer(handlers, port=0, **setting)
    TuningServer(handlers, port=0, queue_depth=0, request_timeout_s=None, retry_after_s=0)  # the edges are legal


def proc_self() -> tuple[int, float] | None:
    """``(open fds, resident MB)`` of this process, where there is a ``/proc``."""
    try:
        with open("/proc/self/statm") as fh:
            resident_pages = int(fh.read().split()[1])
        return len(os.listdir("/proc/self/fd")), resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return None


class TestWireContract:
    def test_health_and_routes(self):
        async def main():
            server, client = await start_server(MemoryTrialStore())
            try:
                health = await client.health()
                assert health["ok"]
                assert await client.list_sessions() == []
                with pytest.raises(ServiceError) as err:
                    await client.status("ghost")
                assert err.value.status == 404
                with pytest.raises(ServiceError) as err:
                    await client.request("POST", "/sessions", {})  # no space/target
                assert err.value.status == 400
                with pytest.raises(ServiceError) as err:
                    await client.request("GET", "/no/such/route")
                assert err.value.status == 404
            finally:
                await server.stop()

        run(main())

    def test_malformed_body_is_400(self):
        async def main():
            server, _ = await start_server(MemoryTrialStore())
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                body = b"{not json"
                writer.write(
                    b"POST /sessions HTTP/1.1\r\nHost: t\r\n"
                    + f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b"400" in raw.split(b"\r\n", 1)[0]
            finally:
                await server.stop()

        run(main())

    def test_ask_tell_status_cycle(self):
        async def main():
            server, client = await start_server(MemoryTrialStore())
            try:
                created = await client.create_session(
                    space=small_space_spec(), optimizer="random", seed=1,
                    max_trials=3, session_id="s1",
                    objectives=[{"name": "loss", "minimize": True}],
                )
                assert created == {"session_id": "s1", "resumed": False, "n_trials": 0}
                suggestions = await client.ask("s1", n=2)
                assert [s.ask_id for s in suggestions] == [0, 1]
                ack = await client.tell("s1", TrialReport(
                    config=suggestions[0].config, metrics=evaluate(suggestions[0].config),
                    ask_id=suggestions[0].ask_id, report_id="r-0",
                ))
                assert ack["trial_id"] == 0 and not ack["duplicate"]
                # retried tell dedups instead of double-recording
                dup = await client.tell("s1", TrialReport(
                    config=suggestions[0].config, metrics=evaluate(suggestions[0].config),
                    ask_id=suggestions[0].ask_id, report_id="r-0",
                ))
                assert dup["duplicate"] and dup["trial_id"] == 0
                status = await client.status("s1")
                assert status["n_trials"] == 1 and not status["complete"]
            finally:
                await server.stop()

        run(main())

    def test_keep_alive_connection(self):
        async def main():
            server, client = await start_server(MemoryTrialStore())
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                for _ in range(3):  # several requests over one connection
                    writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                    await writer.drain()
                    line = await reader.readline()
                    assert b"200" in line
                    length = 0
                    while True:
                        header = await reader.readline()
                        if header in (b"\r\n", b""):
                            break
                        if header.lower().startswith(b"content-length"):
                            length = int(header.split(b":")[1])
                    await reader.readexactly(length)
                writer.close()
            finally:
                await server.stop()

        run(main())

    def test_ask_count_alias_and_batch_metrics(self):
        async def main():
            server, client = await start_server(MemoryTrialStore())
            try:
                await client.create_session(
                    space=small_space_spec(), optimizer="smac", max_trials=20,
                    session_id="b1", seed=2,
                    objectives=[{"name": "loss", "minimize": True}],
                    optimizer_options={"n_init": 2, "n_trees": 4, "n_candidates": 16},
                )
                # "count" is the wire alias for "n" on /ask
                data = await client.request(
                    "POST", "/sessions/b1/ask", {"count": 3}
                )
                suggestions = data["suggestions"]
                assert len(suggestions) == 3
                with pytest.raises(ServiceError) as err:
                    await client.request(
                        "POST", "/sessions/b1/ask", {"n": 2, "count": 2}
                    )
                assert err.value.status == 400
                assert "not both" in str(err.value)
                for s in suggestions:
                    await client.tell("b1", TrialReport(
                        config=s["config"], metrics={"loss": 1.0}, ask_id=s["ask_id"],
                    ))
                # Past n_init: a batched ask hits the surrogate and its
                # counters land on /metrics as gauges.
                await client.ask("b1", n=2)
                text = await client.metrics()
                assert "service_asks_batched" in text
                assert "surrogate_n_fits" in text
                assert "surrogate_pending_fantasies 0" in text
            finally:
                await server.stop()

        run(main())

    def test_metrics_endpoint(self):
        async def main():
            server, client = await start_server(MemoryTrialStore())
            try:
                await client.create_session(
                    space=small_space_spec(), optimizer="random", max_trials=2,
                    session_id="m1", objectives=[{"name": "loss", "minimize": True}],
                )
                (s,) = await client.ask("m1", n=1)
                await client.tell("m1", TrialReport(config=s.config, metrics=evaluate(s.config)))
                text = await client.metrics()
                assert "service_requests_total" in text
                assert "service_trials_total" in text
                assert "service_sessions_created" in text
                (peak,) = re.findall(r"^repro_service_process_peak_rss_bytes (\S+)$", text, re.M)
                assert float(peak) > 0 and peak.isdecimal()  # every byte, not 4.1e+07
                assert_exposition_round_trips(text)
                # The scrape itself moved the registry; read it again beside it.
                assert_exposition_round_trips(await server.handlers.metrics_text(), server.handlers.metrics)
            finally:
                await server.stop()

        run(main())


class TestEvictionOnCompletion:
    def test_finished_sessions_leave_the_hosted_table(self):
        """A session that spends its budget or is completed explicitly stops
        being hosted (its history is most of a server's memory); any later
        touch re-hosts it by lazy resume, exactly as after a restart."""

        async def main():
            server, client = await start_server(MemoryTrialStore())

            async def hosted() -> int:
                return (await client.health())["sessions_hosted"]

            reports = iter(range(100))  # ask ids restart on resume; report ids must not

            async def tell_one(session_id: str) -> tuple[TrialReport, dict]:
                (sugg,) = await client.ask(session_id)
                report = TrialReport(
                    config=sugg.config, metrics=evaluate(sugg.config),
                    ask_id=sugg.ask_id, report_id=f"r-{next(reports)}",
                )
                return report, await client.tell(session_id, report)

            try:
                for session_id, budget in (("a", 2), ("b", 5)):
                    await client.create_session(
                        space=small_space_spec(), optimizer="random", seed=1, max_trials=budget,
                        session_id=session_id, objectives=[{"name": "loss", "minimize": True}],
                    )
                assert await hosted() == 2

                _, ack = await tell_one("a")
                assert not ack["complete"] and await hosted() == 2
                final, ack = await tell_one("a")
                assert ack["complete"] and await hosted() == 1  # told to budget
                retried = await client.tell("a", final)  # the client never saw the ack
                assert retried["duplicate"] and retried["trial_id"] == ack["trial_id"]
                assert retried["complete"] and await hosted() == 1
                assert (await client.status("a"))["n_trials"] == 2

                await tell_one("b")
                await client.complete("b")  # POST .../complete
                assert await hosted() == 0
                assert (await client.status("b"))["status"] == "completed"
                assert "repro_service_sessions_hosted 0" in await client.metrics()
                _, ack = await tell_one("b")  # a later touch resumes it and carries on
                assert ack["trial_id"] == 1 and await hosted() == 1
            finally:
                await server.stop()

        run(main())


    def test_a_session_over_its_cost_budget_is_complete(self):
        """``max_cost`` ends an ask/tell session as ``max_trials`` does: the
        tell that spends it answers complete and the session leaves ``_hosted``."""

        async def main():
            server, client = await start_server(MemoryTrialStore())
            try:
                await client.create_session(
                    space=small_space_spec(), optimizer="random", seed=1, max_trials=50, max_cost=10.0,
                    session_id="pricey", objectives=[{"name": "loss", "minimize": True}],
                )
                acks = []
                for _ in range(3):  # 4 + 4 + 4 >= 10
                    (sugg,) = await client.ask("pricey")
                    acks.append(await client.tell("pricey", TrialReport(
                        config=sugg.config, metrics=evaluate(sugg.config), cost=4.0, ask_id=sugg.ask_id,
                    )))
                assert [ack["complete"] for ack in acks] == [False, False, True]
                assert "pricey" not in server.handlers._hosted
                status = await client.status("pricey")
                assert status["complete"] and status["status"] == "completed" and status["n_trials"] == 3
                with pytest.raises(ServiceError) as refused:
                    await client.ask("pricey")
                assert refused.value.status == 400 and "cost 10" in str(refused.value)
            finally:
                await server.stop()

        run(main())


class TestGridSession:
    def test_a_grid_session_completes_at_its_last_point(self):
        """A grid of three points under a budget of ten: the third tell answers
        complete, the status reads completed, and a later ask is refused as
        for any completed session (the parent raised ExhaustedError at the
        fourth ask instead)."""

        async def main():
            server, client = await start_server(MemoryTrialStore())
            space = ConfigurationSpace("grid", seed=0)
            space.add(CategoricalParameter("k", ["a", "b", "c"]))
            try:
                await client.create_session(
                    space=space_to_dict(space), optimizer="grid", seed=0, max_trials=10, session_id="grid",
                )
                acks, seen = [], []
                for _ in range(3):
                    (sugg,) = await client.ask("grid")
                    seen.append(sugg.config["k"])
                    acks.append(await client.tell("grid", TrialReport(
                        config=sugg.config, metrics={"score": "abc".index(sugg.config["k"])}, ask_id=sugg.ask_id,
                    )))
                assert sorted(seen) == ["a", "b", "c"]
                assert [ack["complete"] for ack in acks] == [False, False, True]
                status = await client.status("grid")
                assert status["status"] == "completed" and status["complete"] and status["n_trials"] == 3
                with pytest.raises(ServiceError) as refused:
                    await client.ask("grid")
                assert refused.value.status == 400 and "is complete" in str(refused.value)
            finally:
                await server.stop()

        run(main())


class TestHyperbandSession:
    def test_asks_carry_the_rung_budget_as_fidelity(self):
        """create -> ask (the answer carries ``fidelity``) -> tell -> complete,
        for the rung-based optimizer; the journal holds each told fidelity."""

        async def main():
            store = MemoryTrialStore()
            server, client = await start_server(store)
            try:
                await client.create_session(
                    space=small_space_spec(), optimizer="hyperband", seed=3, max_trials=12,
                    optimizer_options={"max_budget": 9.0}, session_id="hb",
                    objectives=[{"name": "loss", "minimize": True}],
                )
                fidelities, ack = [], {"complete": False}
                while not ack["complete"]:
                    (sugg,) = await client.ask("hb")
                    fidelities.append(sugg.fidelity)
                    ack = await client.tell("hb", TrialReport(
                        config=sugg.config, metrics=evaluate(sugg.config), cost=sugg.fidelity, ask_id=sugg.ask_id,
                    ))
                # Bracket s=2 of max_budget 9: nine at 1, the best three at 3.
                assert fidelities == [1.0] * 9 + [3.0] * 3
                assert (await client.status("hb"))["status"] == "completed"
                assert [r["fidelity"] for r in store.load_trials("hb")] == fidelities
            finally:
                await server.stop()

        run(main())

    def test_step_runs_hyperband_on_a_target_and_replays(self, tmp_path, capsys):
        """A target's evaluator takes the rung's budget as its run length:
        ``/step`` drives a Hyperband session on ``redis`` to completion in
        batches, each trial journaled at its budget; the status reports the
        best trial at the top budget, not a luckier short run, and
        ``repro replay`` finds no divergence."""
        from repro.cli import main

        async def main_():
            server, client = await start_server(JsonJournalStore(tmp_path))
            try:
                await client.create_session(
                    target={"system": "redis", "workload": "default", "metric": "latency_p95"},
                    optimizer="hyperband", optimizer_options={"max_budget": 9.0}, seed=0, max_trials=20,
                    session_id="hb-step",
                )
                ack = {"complete": False}
                while not ack["complete"]:
                    ack = await client.step("hb-step", n=4)
                return await client.status("hb-step")
            finally:
                await server.stop()

        status = run(main_())
        records = JsonJournalStore(tmp_path).load_trials("hb-step")
        assert len(records) == 20 and {r["fidelity"] for r in records} == {1.0, 3.0, 9.0}
        assert all(r["status"] == "succeeded" and r["cost"] >= r["fidelity"] for r in records)
        value = {fidelity: min(r["metrics"]["latency_p95"] for r in records if r["fidelity"] == fidelity)
                 for fidelity in (3.0, 9.0)}
        assert status["best_value"] == value[9.0] > value[3.0]
        assert main(["replay", "hb-step", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert ": OK" in out and "20 trials" in out


class TestSoak:
    """ROADMAP 6(e): what a server holds is its live sessions, not its past."""

    SESSIONS_PER_PHASE = 250
    TRIALS_PER_SESSION = 6

    def test_memory_is_flat_across_finished_sessions(self, tmp_path):
        async def main():
            store = JsonJournalStore(tmp_path, fsync=False)
            server, client = await start_server(store)
            handlers = server.handlers

            async def phase(k: int) -> dict:
                for i in range(self.SESSIONS_PER_PHASE):
                    sid = f"soak-{k}-{i:03d}"
                    await client.create_session(
                        space=small_space_spec(), optimizer="random", seed=i,
                        max_trials=self.TRIALS_PER_SESSION, session_id=sid,
                        objectives=[{"name": "loss", "minimize": True}],
                    )
                    for _ in range(self.TRIALS_PER_SESSION):
                        (sugg,) = await client.ask(sid)
                        ack = await client.tell(sid, TrialReport(
                            config=sugg.config, metrics=evaluate(sugg.config),
                            ask_id=sugg.ask_id, report_id=f"{sid}-{sugg.ask_id}",
                        ))
                    assert ack["complete"]
                gc.collect()
                counters = handlers.metrics.counters
                return {
                    "objects": len(gc.get_objects()),
                    "proc": proc_self(),
                    "hosted": len(handlers._hosted),
                    "tables": len(store._counts) + len(store._report_ids),
                    "ring": len(handlers.trace.ops),
                    "decided": counters.get("service.trace.requests_kept", 0)
                    + counters.get("service.trace.requests_dropped", 0),
                    "served": counters["service.requests.total"],
                }

            try:
                first, second = await phase(1), await phase(2)
            finally:
                await server.stop()
            for held in (first, second):
                assert held["hosted"] == held["tables"] == 0, held
                assert held["ring"] <= SERVICE_TRACE_SPANS, held
                assert held["decided"] == held["served"], held  # every request kept or dropped
            assert second["objects"] < first["objects"] * 1.01, (first, second)
            if first["proc"] is not None:
                (fds, rss_mb), (fds_later, rss_mb_later) = first["proc"], second["proc"]
                assert fds_later == fds and rss_mb_later - rss_mb <= 1.0, (first, second)

        run(asyncio.wait_for(main(), timeout=300))


class FixedLatency:
    """Stands in for the server module's ``time``: every request lasts
    ``latency`` seconds on the clock the retention rule reads."""

    def __init__(self, latency: float) -> None:
        self.latency = latency
        self._calls = 0

    def perf_counter(self) -> float:
        self._calls += 1
        return self.latency if self._calls % 2 == 0 else 0.0


class TestTailRetention:
    """The service ring keeps the requests worth explaining — failed, slow
    for their route, a route's warm-up and a 1-in-64 baseline — and drops
    the rest; each verdict is counted on ``/metrics``."""

    FAST_S = 0.0007  # inside one histogram bucket: its p99 estimate is above it

    @pytest.fixture
    def clock(self, monkeypatch) -> FixedLatency:
        clock = FixedLatency(self.FAST_S)
        monkeypatch.setattr(server_module, "time", clock)
        return clock

    @staticmethod
    def verdicts(server) -> tuple[float, float]:
        metrics = server.handlers.metrics
        return (metrics.counter_value("service.trace.requests_kept"),
                metrics.counter_value("service.trace.requests_dropped"))

    @staticmethod
    async def get(server, n: int = 1, path: str = "/healthz") -> int:
        for _ in range(n):
            status, *_ = await server._serve_request("GET", path, {}, b"")
        return status

    def test_warm_up_then_one_baseline_request_in_64(self, clock):
        async def main():
            server = TuningServer(ServiceHandlers(SessionManager(MemoryTrialStore())))
            await self.get(server, TRACE_SAMPLE_EVERY)
            assert self.verdicts(server) == (TRACE_SAMPLE_EVERY, 0)
            await self.get(server, 2 * TRACE_SAMPLE_EVERY)
            assert self.verdicts(server) == (TRACE_SAMPLE_EVERY + 2, 2 * (TRACE_SAMPLE_EVERY - 1))
            kept = [op for op in server.handlers.trace.ops if op.name == "http.request"]
            assert len(kept) == TRACE_SAMPLE_EVERY + 2
            assert "repro_service_trace_requests_dropped 126" in await server.handlers.metrics_text()

        run(main())

    def test_slow_failed_and_error_span_requests_are_kept(self, clock):
        from contextlib import suppress

        from repro.telemetry.spans import span

        async def crash():
            raise RuntimeError("a bug")

        async def survives_a_failed_step():
            with suppress(ValueError):
                with span("optimizer.suggest"):
                    raise ValueError("handled inside the request")
            return {"ok": True}

        async def main():
            server = TuningServer(ServiceHandlers(SessionManager(MemoryTrialStore())))
            handlers = server.handlers
            await self.get(server, TRACE_SAMPLE_EVERY + 1)  # past warm-up and the 64th
            kept, dropped = self.verdicts(server)
            assert (kept, dropped) == (TRACE_SAMPLE_EVERY + 1, 0)

            clock.latency = 0.05  # above the route's p99
            assert await self.get(server) == 200
            clock.latency = self.FAST_S
            assert self.verdicts(server) == (kept + 1, dropped)

            handlers.health = crash
            assert await self.get(server) == 500
            assert self.verdicts(server) == (kept + 2, dropped)

            handlers.health = survives_a_failed_step
            assert await self.get(server) == 200
            assert self.verdicts(server) == (kept + 3, dropped)
            failed_step, request = list(handlers.trace.ops)[-2:]
            assert failed_step.status == "error" and failed_step.parent_id == request.span_id
            assert request.attributes["status"] == 200

            del handlers.health
            await self.get(server)
            assert self.verdicts(server) == (kept + 3, dropped + 1)

        run(main())

    def test_events_are_counted_at_emit_and_follow_their_tree(self, clock):
        """An info event rides its request's verdict; its count does not."""
        from repro.telemetry.spans import emit_event

        async def marked():
            emit_event("store.spill_flush", message="inside the request")
            return {"ok": True}

        async def main():
            server = TuningServer(ServiceHandlers(SessionManager(MemoryTrialStore())))
            server.handlers.health = marked
            n = 3 * TRACE_SAMPLE_EVERY
            await self.get(server, n)
            kept, dropped = self.verdicts(server)
            assert (kept, dropped) == (TRACE_SAMPLE_EVERY + 2, n - TRACE_SAMPLE_EVERY - 2)
            events = [op for op in server.handlers.trace.ops if op.name == "store.spill_flush"]
            assert len(events) == kept
            assert server.handlers.metrics.counter_value("events.store.spill_flush") == n

        run(main())

    def test_a_request_event_sits_in_its_request_tree_under_its_trace_id(self, clock):
        from repro.telemetry.spans import emit_event, format_traceparent, span

        async def marked():
            with span("optimizer.suggest"):
                emit_event("store.spill_flush", message="deep inside the request")
            return {"ok": True}

        async def main():
            server = TuningServer(ServiceHandlers(SessionManager(MemoryTrialStore())))
            server.handlers.health = marked
            trace_id = "ab" * 16
            await server._serve_request("GET", "/healthz", {"traceparent": format_traceparent(trace_id)}, b"")
            event, suggest, request = (await server.handlers.debug_trace())["spans"]
            assert (event["name"], event["duration_s"], event["attributes"]["severity"]) == (
                "store.spill_flush", 0.0, "info",
            )
            assert event["parent_id"] == suggest["span_id"] and suggest["parent_id"] == request["span_id"]
            assert request["name"] == "http.request" and request["parent_id"] is None
            assert event["trace_id"] == suggest["trace_id"] == request["trace_id"] == trace_id

        run(main())

    def test_a_warning_event_keeps_a_request_the_sample_would_drop(self, clock):
        """A transient append failure spills the told trial and emits
        ``store.spill``: that tell's tree is kept though it is neither in its
        route's warm-up, nor a 64th, nor slow."""
        from repro.chaos import FaultPlan, FaultRule, FaultyStore
        from repro.core.codec import Suggestion

        n_tells = TRACE_SAMPLE_EVERY + 6
        plan = FaultPlan(seed=0, rules=[
            FaultRule(site="store.append", kind="error", start=n_tells - 1, stop=n_tells),
        ])

        async def post(server, path: str, body: dict) -> dict:
            status, payload, *_ = await server._serve_request("POST", path, {}, json.dumps(body).encode())
            assert status == 200, payload
            return json.loads(payload)

        async def main():
            store = FaultyStore(MemoryTrialStore(), plan.injector())
            server = TuningServer(ServiceHandlers(SessionManager(store)))
            await post(server, "/sessions", {
                "space": small_space_spec(), "optimizer": "random", "seed": 0, "max_trials": 1000,
                "session_id": "spill", "objectives": [{"name": "loss", "minimize": True}],
            })
            for _ in range(n_tells):
                (sugg,) = (await post(server, "/sessions/spill/ask", {"n": 1}))["suggestions"]
                sugg = Suggestion.from_dict(sugg)
                report = TrialReport(config=sugg.config, metrics=evaluate(sugg.config), ask_id=sugg.ask_id)
                await post(server, "/sessions/spill/tell", report.to_dict())
            spans = (await server.handlers.debug_trace())["spans"]
            by_id = {s["span_id"]: s for s in spans}
            (spill,) = [s for s in spans if s["name"] == "store.spill"]
            request = by_id[spill["parent_id"]]
            assert request["name"] == "http.request" and request["attributes"]["route"] == "session.tell"
            tells = [s for s in spans if s["name"] == "http.request" and s["attributes"]["route"] == "session.tell"]
            assert len(tells) == TRACE_SAMPLE_EVERY + 2  # warm-up, the 64th, and the one that spilled
            assert tells[-1] is request
            counters = server.handlers.metrics.counters
            assert counters["events.store.spill"] == 1
            kept, dropped = self.verdicts(server)
            assert kept + dropped == counters["service.requests.total"] == 1 + 2 * n_tells

        run(main())

    def test_deadline_503_keeps_the_spans_its_worker_records_afterwards(self, clock):
        import threading

        from repro.telemetry.spans import span

        release, finished = threading.Event(), threading.Event()

        def overdue_work():
            with span("optimizer.suggest", late=True):
                release.wait(timeout=10)
            finished.set()

        async def wedged():
            return await asyncio.to_thread(overdue_work)

        async def main():
            server = TuningServer(
                ServiceHandlers(SessionManager(MemoryTrialStore())), request_timeout_s=0.05
            )
            await self.get(server, TRACE_SAMPLE_EVERY + 1)
            kept, dropped = self.verdicts(server)
            server.handlers.health = wedged
            assert await self.get(server) == 503  # decided while the worker still runs
            assert self.verdicts(server) == (kept + 1, dropped)
            request = server.handlers.trace.ops[-1]
            assert request.name == "http.request" and request.attributes["status"] == 503
            release.set()
            assert await asyncio.to_thread(finished.wait, 10)
            late = server.handlers.trace.ops[-1]
            assert late.attributes == {"late": True} and late.parent_id == request.span_id
            assert late.trace_id == request.trace_id

        run(main())

    @pytest.mark.parametrize("keep", [True, False], ids=["kept", "dropped"])
    def test_no_span_crosses_the_verdict_lost_or_misfiled(self, keep):
        # Worker threads record while the verdict lands: every span reaches
        # the ring if the tree is kept, none if it is dropped.
        import sys
        import threading

        from repro.telemetry import SessionTrace
        from repro.telemetry.spans import OpSpan

        trace = SessionTrace()
        spans = server_module._RequestSpans(trace)
        n_writers, per_writer = 8, 500
        start = threading.Barrier(n_writers + 1)

        def writer():
            start.wait(timeout=10)
            for _ in range(per_writer):
                spans.record_op(OpSpan("optimizer.suggest", None, None, {}))

        threads = [threading.Thread(target=writer) for _ in range(n_writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            start.wait(timeout=10)
            while len(spans.ops) < per_writer:
                pass
            spans.settle(keep)
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert trace.ops_recorded == (n_writers * per_writer if keep else 0)


class TestServerEvents:
    def test_overload_and_drain_are_recorded_on_the_service_trace(self):
        """Both fire outside any request's span sink: shed before admission,
        drain on stop. Each is an event span on ``/debug/trace``."""

        async def main():
            server, _ = await start_server(MemoryTrialStore())
            server._shed("sessions", 429, "queue_full", "server at capacity")
            await server.stop()
            spans = (await server.handlers.debug_trace())["spans"]
            assert [(s["name"], s["attributes"]["severity"], s["attributes"].get("reason"), s["duration_s"])
                    for s in spans] == [
                ("service.overload", "warning", "queue_full", 0.0), ("service.drain", "info", None, 0.0),
            ]
            counters = server.handlers.metrics.counters
            assert counters["events.service.overload"] == counters["events.service.drain"] == 1
            assert counters["service.requests.shed"] == 1

        run(main())


class TestDebugTrace:
    def test_failed_request_tree_is_served_as_a_loadable_trace(self, tmp_path):
        from repro.telemetry.analyzer import load_trace

        async def crash():
            raise RuntimeError("a bug")

        async def main():
            server, client = await start_server(MemoryTrialStore())
            server.handlers.list_sessions = crash
            try:
                with pytest.raises(ServiceError) as err:
                    await client.list_sessions()
                assert err.value.status == 500
                server._draining = True  # exempt from admission, like /metrics
                body = await client.request("GET", "/debug/trace")
            finally:
                server._draining = False
                await server.stop()
            (failed,) = [s for s in body["spans"] if s["attributes"].get("status") == 500]
            assert failed["name"] == "http.request" and failed["attributes"]["route"] == "sessions"
            path = tmp_path / "service-trace.json"
            path.write_text(json.dumps(body))
            assert load_trace(str(path))["schema"] == 3

        run(main())


class TestServerSideStep:
    def test_step_runs_target_session(self):
        async def main():
            server, client = await start_server(MemoryTrialStore())
            try:
                await client.create_session(
                    target={"system": "redis", "workload": "ycsb-b", "metric": "throughput"},
                    optimizer="random", seed=2, max_trials=4, session_id="t1",
                )
                first = await client.step("t1", n=3)
                assert first["trial_ids"] == [0, 1, 2] and not first["complete"]
                second = await client.step("t1", n=5)  # clipped to remaining budget
                assert second["trial_ids"] == [3] and second["complete"]
                status = await client.status("t1")
                assert status["complete"] and status["best_value"] is not None
                with pytest.raises(ServiceError) as err:
                    await client.step("t1", n=1)
                assert err.value.status == 400
            finally:
                await server.stop()

        run(main())

    def test_step_requires_target(self):
        async def main():
            server, client = await start_server(MemoryTrialStore())
            try:
                await client.create_session(
                    space=small_space_spec(), optimizer="random", max_trials=2,
                    session_id="c1", objectives=[{"name": "loss", "minimize": True}],
                )
                with pytest.raises(ServiceError) as err:
                    await client.step("c1")
                assert err.value.status == 400
            finally:
                await server.stop()

        run(main())


class TestDurableService:
    def test_restart_resumes_lazily(self, tmp_path):
        async def main():
            store = JsonJournalStore(tmp_path)
            server, client = await start_server(store)
            await client.create_session(
                space=small_space_spec(), optimizer="random", seed=3, max_trials=4,
                session_id="d1", objectives=[{"name": "loss", "minimize": True}],
            )
            suggestions = await client.ask("d1", n=2)
            for s in suggestions:
                await client.tell("d1", TrialReport(
                    config=s.config, metrics=evaluate(s.config), report_id=f"r-{s.ask_id}",
                ))
            await server.stop(close_handlers=False)

            # a brand-new process-equivalent: fresh manager over the same store
            server2, client2 = await start_server(store)
            try:
                status = await client2.status("d1")
                assert status["n_trials"] == 2
                # dedup state survives restart: the retried tell is recognised
                dup = await client2.tell("d1", TrialReport(
                    config=suggestions[0].config, metrics=evaluate(suggestions[0].config),
                    report_id="r-0",
                ))
                assert dup["duplicate"]
                # and new trials continue the journal sequence
                (s,) = await client2.ask("d1", n=1)
                ack = await client2.tell("d1", TrialReport(
                    config=s.config, metrics=evaluate(s.config),
                ))
                assert ack["trial_id"] == 2
            finally:
                await server2.stop()

        run(main())

    def test_create_resume_flag(self, tmp_path):
        async def main():
            store = JsonJournalStore(tmp_path)
            server, client = await start_server(store)
            await client.create_session(
                space=small_space_spec(), optimizer="random", max_trials=3,
                session_id="r1", objectives=[{"name": "loss", "minimize": True}],
            )
            (s,) = await client.ask("r1", n=1)
            await client.tell("r1", TrialReport(config=s.config, metrics=evaluate(s.config)))
            await server.stop(close_handlers=False)

            server2, client2 = await start_server(store)
            try:
                again = await client2.create_session(
                    space=small_space_spec(), optimizer="random", max_trials=3,
                    session_id="r1", resume=True,
                    objectives=[{"name": "loss", "minimize": True}],
                )
                assert again == {"session_id": "r1", "resumed": True, "n_trials": 1}
                # without the flag, an existing id is an error
                with pytest.raises(ServiceError):
                    await client2.create_session(
                        space=small_space_spec(), optimizer="random", max_trials=3,
                        session_id="r1", objectives=[{"name": "loss", "minimize": True}],
                    )
            finally:
                await server2.stop()

        run(main())


class TestConcurrentCampaign:
    """The acceptance demo: ≥100 concurrent sessions, server killed
    mid-campaign and restarted, every session resumes from the journal
    with no lost and no duplicated trials."""

    N_SESSIONS = 100
    TRIALS_PER_SESSION = 3

    def test_hundred_sessions_survive_restart(self, tmp_path):
        async def main():
            store = JsonJournalStore(tmp_path, fsync=False)  # keep CI wall-clock sane
            port = free_port()
            server = TuningServer(ServiceHandlers(SessionManager(store)), port=port)
            await server.start()
            client = ServiceClient(server.host, port, timeout_s=10)

            ids = [f"campaign-{i:03d}" for i in range(self.N_SESSIONS)]
            await asyncio.gather(*(
                client.create_session(
                    space=small_space_spec(), optimizer="random", seed=i,
                    max_trials=self.TRIALS_PER_SESSION, session_id=sid,
                    objectives=[{"name": "loss", "minimize": True}],
                )
                for i, sid in enumerate(ids)
            ))
            assert len(await client.list_sessions()) == self.N_SESSIONS

            campaign = [
                asyncio.create_task(client.run_session(sid, evaluate))
                for sid in ids
            ]

            # let the campaign make real progress, then kill the server
            while sum(len(store.load_trials(sid)) for sid in ids) < self.N_SESSIONS:
                await asyncio.sleep(0.02)
            await server.stop(close_handlers=False)
            mid_flight = sum(len(store.load_trials(sid)) for sid in ids)
            assert 0 < mid_flight < self.N_SESSIONS * self.TRIALS_PER_SESSION

            await asyncio.sleep(0.3)  # clients are now retrying against a dead port

            # "restart": a fresh server + fresh manager on the same port/store
            server2 = TuningServer(ServiceHandlers(SessionManager(store)), port=port)
            await server2.start()
            try:
                statuses = await asyncio.gather(*campaign)
            finally:
                await server2.stop(close_handlers=False)

            # every session finished: no lost trials, no duplicates
            assert all(st["complete"] for st in statuses)
            for sid in ids:
                records = store.load_trials(sid)
                assert len(records) == self.TRIALS_PER_SESSION, sid
                assert [r["trial_id"] for r in records] == list(range(self.TRIALS_PER_SESSION))
                report_ids = [r.get("report_id") for r in records]
                assert len(set(report_ids)) == len(report_ids), sid
            store.close()

        run(asyncio.wait_for(main(), timeout=300))

    def test_run_session_journals_every_evaluation_across_a_restart(self, tmp_path):
        """Ask ids restart at 0 when the restarted server resumes the
        session, so a report named after its ask id repeats one already
        journaled and its evaluation is dropped as a duplicate. Each
        evaluation's report id is its own: all of them are journaled."""
        acks, evaluations = [], []

        class AckRecordingClient(ServiceClient):
            async def tell(self, session_id, report, retry=0):
                ack = await super().tell(session_id, report, retry=retry)
                acks.append(ack)
                return ack

        def counted(config):
            evaluations.append(config)
            return evaluate(config)

        async def main():
            store = JsonJournalStore(tmp_path, fsync=False)
            port = free_port()
            server = TuningServer(ServiceHandlers(SessionManager(store)), port=port)
            await server.start()
            client = AckRecordingClient(server.host, port, timeout_s=10)
            await client.create_session(
                space=small_space_spec(), optimizer="random", seed=0, max_trials=20,
                session_id="r", objectives=[{"name": "loss", "minimize": True}],
            )
            campaign = asyncio.create_task(client.run_session("r", counted))
            while len(store.load_trials("r")) < 4:
                await asyncio.sleep(0.001)
            await server.stop(close_handlers=False)  # drains: the tell in flight is answered
            assert len(store.load_trials("r")) < 20
            server2 = TuningServer(ServiceHandlers(SessionManager(store)), port=port)
            await server2.start()
            try:
                status = await campaign
            finally:
                await server2.stop(close_handlers=False)
            assert status["complete"]
            assert len(evaluations) == len(store.load_trials("r")) == 20
            assert [ack["duplicate"] for ack in acks] == [False] * 20
            store.close()

        run(asyncio.wait_for(main(), timeout=120))

    def test_interleaved_ask_tell_on_shared_session(self):
        """Many clients hammering one session: trial ids stay unique."""

        async def main():
            server, client = await start_server(MemoryTrialStore())
            try:
                await client.create_session(
                    space=small_space_spec(), optimizer="random", seed=0,
                    max_trials=40, session_id="shared",
                    objectives=[{"name": "loss", "minimize": True}],
                )

                async def worker(w: int):
                    done = []
                    for k in range(5):
                        (s,) = await client.ask("shared", n=1)
                        ack = await client.tell("shared", TrialReport(
                            config=s.config, metrics=evaluate(s.config),
                            ask_id=s.ask_id, report_id=f"w{w}-{k}",
                        ))
                        done.append(ack["trial_id"])
                    return done

                results = await asyncio.gather(*(worker(w) for w in range(8)))
                flat = [tid for chunk in results for tid in chunk]
                assert sorted(flat) == list(range(40))
                status = await client.status("shared")
                assert status["complete"]
            finally:
                await server.stop()

        run(asyncio.wait_for(main(), timeout=120))


class TestTracePropagation:
    """Cross-wire tracing: traceparent propagation, client spans, per-route
    metrics, and error-envelope trace ids."""

    def test_traceparent_round_trip_ask_tell(self):
        from repro.telemetry import SessionTrace

        async def main():
            server = TuningServer(ServiceHandlers(SessionManager(MemoryTrialStore())), port=0)
            await server.start()
            client_trace = SessionTrace(name="client")
            client = ServiceClient(server.host, server.port, timeout_s=10, trace=client_trace)
            try:
                await client.create_session(
                    space=small_space_spec(), optimizer="random", seed=0,
                    max_trials=8, session_id="tp",
                    objectives=[{"name": "loss", "minimize": True}],
                )
                suggestions = await client.ask("tp", n=2)
                for s in suggestions:
                    await client.tell("tp", TrialReport(
                        config=s.config, metrics=evaluate(s.config), ask_id=s.ask_id,
                    ))
                # Client side: one service.request span per HTTP call, all
                # under the client trace id.
                requests = [op for op in client_trace.ops if op.name == "service.request"]
                assert len(requests) == 4  # create + ask + 2 tells
                assert all(op.trace_id == client_trace.trace_id for op in requests)
                assert all(op.attributes["status"] == 200 for op in requests)
                # Server side: http.request spans bound to the inbound
                # traceparent — the caller's trace id, not the server's own.
                server_trace = server.handlers.trace
                http_ops = [op for op in server_trace.ops if op.name == "http.request"]
                assert len(http_ops) == 4
                assert all(op.trace_id == client_trace.trace_id for op in http_ops)
                routes = {op.attributes["route"] for op in http_ops}
                assert routes == {"sessions", "session.ask", "session.tell"}
                # Optimizer spans run in worker threads (asyncio.to_thread
                # copies the context) and still carry the caller's trace id.
                suggests = [op for op in server_trace.ops if op.name == "optimizer.suggest"]
                assert suggests
                assert all(op.trace_id == client_trace.trace_id for op in suggests)
                # The journaled provenance records the same trace id.
                records = server.handlers.manager.store.load_trials("tp")
                assert all(r["provenance"]["trace_id"] == client_trace.trace_id for r in records)
            finally:
                await server.stop()

        run(asyncio.wait_for(main(), timeout=60))

    def test_error_body_carries_trace_id(self):
        async def main():
            server, _ = await start_server(MemoryTrialStore())
            try:
                trace_id = "ab" * 16
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(
                    b"GET /sessions/ghost HTTP/1.1\r\nHost: t\r\n"
                    + f"Traceparent: 00-{trace_id}-{'cd' * 8}-01\r\n".encode()
                    + b"Connection: close\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                body = raw.partition(b"\r\n\r\n")[2]
                error = json.loads(body)["error"]
                assert error["status"] == 404
                assert error["trace_id"] == trace_id
            finally:
                await server.stop()

        run(asyncio.wait_for(main(), timeout=60))

    def test_malformed_traceparent_degrades_to_server_trace(self):
        async def main():
            server, _ = await start_server(MemoryTrialStore())
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                    b"Traceparent: ff-bogus-header-00\r\n"
                    b"Connection: close\r\n\r\n"
                )
                await writer.drain()
                await reader.read()
                writer.close()
                server_trace = server.handlers.trace
                (op,) = [op for op in server_trace.ops if op.name == "http.request"]
                assert op.trace_id == server_trace.trace_id  # fresh, not inherited
            finally:
                await server.stop()

        run(asyncio.wait_for(main(), timeout=60))

    def test_per_route_metrics_on_metrics_endpoint(self):
        async def main():
            server, client = await start_server(MemoryTrialStore())
            try:
                await client.health()
                with pytest.raises(ServiceError):
                    await client.status("ghost")
                text = await client.metrics()
                assert "repro_http_request_seconds_healthz_count 1" in text
                assert "repro_http_request_status_healthz_200 1" in text
                assert "repro_http_request_status_session_status_404 1" in text
                assert "repro_http_requests_in_flight" in text
            finally:
                await server.stop()

        run(asyncio.wait_for(main(), timeout=60))

class TestWorkerPool:
    def test_more_sessions_than_workers_share_one_bounded_pool(self):
        """More concurrent sessions than the pool has workers: at most
        ``workers`` hops run at once, on the service's own threads, never on
        asyncio's default pool; each worker's spans carry its caller's trace
        id; and a restart over the same handlers, then two closes, all work."""
        import threading
        import time

        from repro.telemetry import SessionTrace

        async def main():
            handlers = ServiceHandlers(SessionManager(MemoryTrialStore()))
            workers = handlers.workers
            assert workers >= 2
            server = TuningServer(handlers, port=0)
            await server.start()
            lock, running, peak, names = threading.Lock(), [0], [0], set()

            def slow(suggest):
                def suggest_slowly(n):
                    with lock:
                        running[0] += 1
                        peak[0] = max(peak[0], running[0])
                        names.update(t.name for t in threading.enumerate())
                    try:
                        time.sleep(0.03)
                        return suggest(n)
                    finally:
                        with lock:
                            running[0] -= 1
                return suggest_slowly

            async def drive(sid: str, trace: SessionTrace, rounds: int) -> None:
                client = ServiceClient(server.host, server.port, timeout_s=10, trace=trace)
                for _ in range(rounds):
                    (s,) = await client.ask(sid)
                    await client.tell(sid, TrialReport(config=s.config, metrics=evaluate(s.config), ask_id=s.ask_id))

            sessions = [f"p{i}" for i in range(workers + 3)]
            traces = [SessionTrace(name=sid) for sid in sessions]
            try:
                client = ServiceClient(server.host, server.port, timeout_s=10)
                for sid in sessions:
                    await client.create_session(
                        space=small_space_spec(), optimizer="random", seed=0, max_trials=20,
                        session_id=sid, objectives=OBJECTIVES,
                    )
                    optimizer = handlers._hosted[sid].session.optimizer
                    optimizer.suggest = slow(optimizer.suggest)
                await asyncio.gather(*(drive(sid, trace, 3) for sid, trace in zip(sessions, traces)))
                assert peak[0] == workers  # saturated, and bounded by the pool
                service_threads = {name for name in names if name.startswith("repro-service")}
                assert 0 < len(service_threads) <= workers
                assert not any(name.startswith("asyncio") for name in names), names  # no default pool
                suggests = [op for op in handlers.trace.ops if op.name == "optimizer.suggest"]
                assert len(suggests) == 3 * len(sessions)
                assert {op.trace_id for op in suggests} == {trace.trace_id for trace in traces}
                text = await client.metrics()
                assert f"repro_service_pool_workers {workers}" in text
                (waited,) = re.findall(r"^repro_service_pool_wait_seconds_count (\S+)$", text, re.M)
                assert float(waited) >= 3 * 2 * len(sessions)  # every ask and tell hopped

                # A restart over the same handlers keeps the pool; closing twice is harmless.
                await server.stop(close_handlers=False)
                server = TuningServer(handlers, port=0)
                await server.start()
                await drive(sessions[0], traces[0], 1)
            finally:
                await server.stop()
                await server.stop()
            assert handlers._pool is None and not handlers._running

        run(asyncio.wait_for(main(), timeout=60))

    def test_close_waits_for_work_a_deadline_left_on_the_pool(self):
        """A request answered 503 at its deadline leaves its worker running;
        the drain no longer counts it, but close releases the store only once
        it has returned, and its failure is nobody's to log."""
        import time

        async def main():
            handlers = ServiceHandlers(SessionManager(MemoryTrialStore()))
            server = TuningServer(handlers, port=0, request_timeout_s=0.05)
            await server.start()
            unretrieved, order = [], []
            asyncio.get_running_loop().set_exception_handler(lambda loop, ctx: unretrieved.append(ctx))
            close = handlers.manager.close

            def overdue_status(session_id):
                time.sleep(0.3)
                order.append("work")
                raise ZeroDivisionError

            handlers.manager.status = overdue_status
            handlers.manager.close = lambda: order.append("close") or close()
            client = ServiceClient(server.host, server.port, timeout_s=10)
            with pytest.raises(ServiceError) as err:
                await client.status("s1")
            assert err.value.status == 503 and order == []
            await server.stop(drain_timeout_s=0.01)
            assert order == ["work", "close"]
            gc.collect()
            assert unretrieved == []

        run(asyncio.wait_for(main(), timeout=60))


# ---------------------------------------------------------------------------
# The status rule: whose fault a failure is, decided once
# ---------------------------------------------------------------------------
OBJECTIVES = [{"name": "loss", "minimize": True}]


def constrained_space_spec() -> dict:
    """A numeric pair a ``LinearConstraint`` reads, and a categorical knob."""
    space = ConfigurationSpace("svc-constrained", seed=0)
    space.add(FloatParameter("x", -2.0, 2.0, default=0.0))
    space.add(IntegerParameter("n", 1, 8, default=2))
    space.add(CategoricalParameter("mode", ["a", "b"], default="a"))
    space.add_constraint(LinearConstraint({"x": 1.0, "n": -1.0}, 0.0, name="x_below_n"))
    return space_to_dict(space)


def create_body(**overrides) -> dict:
    return {"space": small_space_spec(), "optimizer": "random", "seed": 1, "max_trials": 3,
            "objectives": OBJECTIVES, **overrides}


def space_with(**overrides) -> dict:
    return {**small_space_spec(), **overrides}


def param(**overrides) -> dict:
    return {"type": "float", "name": "x", "lower": -2.0, "upper": 2.0, **overrides}


#: One row per client mistake: (id, method, path, body, expected status).
#: Sessions on the probed server: "s1" (open, one ask pending), "done"
#: (budget spent), "t1" (target session, can /step) and "c1" (a space with a
#: linear constraint and a categorical knob).
STATUS_RULE = [
    # -- POST /sessions: a malformed body or an impossible spec is a 400 --------
    ("create-empty-body", "POST", "/sessions", {}, 400),
    ("create-not-json", "POST", "/sessions", b"{not json", 400),
    ("create-json-array", "POST", "/sessions", b"[1, 2]", 400),
    ("create-space-and-target", "POST", "/sessions", create_body(target={"system": "redis"}), 400),
    ("create-max-trials-text", "POST", "/sessions", create_body(max_trials="many"), 400),
    ("create-max-trials-zero", "POST", "/sessions", create_body(max_trials=0), 400),
    ("create-inverted-bounds", "POST", "/sessions",
     create_body(space=space_with(parameters=[param(lower=2.0, upper=-2.0)])), 400),
    ("create-unknown-parameter-type", "POST", "/sessions",
     create_body(space=space_with(parameters=[param(type="complex")])), 400),
    ("create-parameters-not-a-list", "POST", "/sessions", create_body(space=space_with(parameters=5)), 400),
    ("create-parameter-not-an-object", "POST", "/sessions", create_body(space=space_with(parameters=[5])), 400),
    ("create-no-parameters", "POST", "/sessions", create_body(space={"name": "empty"}), 400),
    ("create-duplicate-parameter", "POST", "/sessions",
     create_body(space=space_with(parameters=[param(), param()])), 400),
    ("create-conditions-not-a-list", "POST", "/sessions", create_body(space=space_with(conditions=5)), 400),
    ("create-condition-cycle", "POST", "/sessions", create_body(space=space_with(
        parameters=[param(), param(name="y")],
        conditions=[{"kind": "gt", "child": "x", "parent": "y", "threshold": 0.0},
                    {"kind": "gt", "child": "y", "parent": "x", "threshold": 0.0}])), 400),
    ("create-self-condition", "POST", "/sessions", create_body(space=space_with(
        parameters=[param()], conditions=[{"kind": "gt", "child": "x", "parent": "x", "threshold": 0.0}])), 400),
    ("create-condition-unknown-parent", "POST", "/sessions", create_body(space=space_with(
        parameters=[param()], conditions=[{"kind": "gt", "child": "x", "parent": "ghost", "threshold": 0.0}])), 400),
    ("create-log-over-non-positive-lower", "POST", "/sessions",
     create_body(space=space_with(parameters=[param(lower=0.0, log=True)])), 400),
    ("create-prior-not-an-object", "POST", "/sessions",
     create_body(space=space_with(parameters=[param(prior=5)])), 400),
    ("create-objective-without-name", "POST", "/sessions", create_body(objectives=[{"minimize": True}]), 400),
    ("create-unknown-optimizer", "POST", "/sessions", create_body(optimizer="nope"), 400),
    ("create-unknown-optimizer-option", "POST", "/sessions", create_body(optimizer_options={"zzz": 1}), 400),
    ("create-unknown-target-system", "POST", "/sessions", {"target": {"system": "mainframe"}}, 400),
    ("create-unknown-target-workload", "POST", "/sessions",
     {"target": {"system": "redis", "workload": "nope"}}, 400),
    ("create-unknown-lint-ignore", "POST", "/sessions", create_body(lint_ignore=["SP999"]), 400),
    ("create-duplicate-session-id", "POST", "/sessions", create_body(session_id="s1"), 409),
    ("create-session-id-no-url-can-address", "POST", "/sessions", create_body(session_id="a/b"), 400),
    ("create-or-resume-session-id-no-url-can-address", "POST", "/sessions",
     create_body(session_id="../b", resume=True), 400),
    # -- the route table: unknown path 404, known path + other method 405 ------
    ("no-such-route", "GET", "/no/such/route", None, 404),
    ("no-such-action", "POST", "/sessions/s1/bogus", {}, 404),
    ("put-sessions", "PUT", "/sessions", {}, 405),
    ("delete-session", "DELETE", "/sessions/s1", None, 405),
    ("get-ask", "GET", "/sessions/s1/ask", None, 405),
    ("post-healthz", "POST", "/healthz", {}, 405),
    # -- a session nobody created is a 404 on every route ----------------------
    ("status-ghost", "GET", "/sessions/ghost", None, 404),
    ("ask-ghost", "POST", "/sessions/ghost/ask", {"n": 1}, 404),
    ("tell-ghost", "POST", "/sessions/ghost/tell", {"config": {"x": 0.0, "n": 2}, "metrics": {"loss": 1.0}}, 404),
    ("complete-ghost", "POST", "/sessions/ghost/complete", None, 404),
    # -- ask / tell / step bodies ------------------------------------------------
    ("ask-n-zero", "POST", "/sessions/s1/ask", {"n": 0}, 400),
    ("ask-n-text", "POST", "/sessions/s1/ask", {"n": "abc"}, 400),
    ("ask-completed", "POST", "/sessions/done/ask", {"n": 1}, 400),
    ("tell-without-config", "POST", "/sessions/s1/tell", {"metrics": {"loss": 1.0}}, 400),
    ("tell-without-objective-metric", "POST", "/sessions/s1/tell",
     {"config": {"x": 0.0, "n": 2}, "metrics": {"other": 1.0}}, 400),
    ("tell-value-out-of-range", "POST", "/sessions/s1/tell",
     {"config": {"x": 99.0, "n": 2}, "metrics": {"loss": 1.0}}, 400),
    ("step-n-text", "POST", "/sessions/t1/step", {"n": "abc"}, 400),
    # a value is checked before any constraint reads it
    ("tell-text-for-a-constrained-knob", "POST", "/sessions/c1/tell",
     {"config": {"x": "abc", "n": 2, "mode": "a"}, "metrics": {"loss": 1.0}}, 400),
    ("tell-categorical-not-a-choice", "POST", "/sessions/c1/tell",
     {"config": {"x": 0.0, "n": 2, "mode": "c"}, "metrics": {"loss": 1.0}}, 400),
]


async def raw_request(server: TuningServer, method: str, path: str, body) -> tuple[int, dict]:
    """One request over a real socket, any method, any bytes; (status, JSON body)."""
    payload = b"" if body is None else body if isinstance(body, bytes) else json.dumps(body).encode()
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(payload)}\r\n"
        "Connection: close\r\n\r\n".encode() + payload
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, data = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(data)


async def start_probed_server() -> tuple[TuningServer, ServiceClient]:
    server, client = await start_server(MemoryTrialStore())
    await client.create_session(**create_body(session_id="s1"))
    await client.ask("s1", n=1)
    await client.create_session(**create_body(session_id="done", max_trials=1))
    (s,) = await client.ask("done", n=1)
    await client.tell("done", TrialReport(config=s.config, metrics=evaluate(s.config)))
    await client.create_session(
        target={"system": "redis", "workload": "ycsb-b"}, optimizer="random", seed=2,
        max_trials=4, session_id="t1",
    )
    await client.create_session(**create_body(space=constrained_space_spec(), session_id="c1"))
    return server, client


class TestStatusRule:
    """Nothing a client can send is a crash: every mistake answers its 4xx,
    carries the trace id, and leaves ``service.requests.crashed`` at 0."""

    @pytest.mark.parametrize(
        "method, path, body, expected",
        [pytest.param(*row[1:], id=row[0]) for row in STATUS_RULE],
    )
    def test_client_mistake_answers_its_status(self, method, path, body, expected):
        async def main():
            server, _ = await start_probed_server()
            try:
                status, answer = await raw_request(server, method, path, body)
                assert status == expected, answer
                assert answer["error"]["status"] == expected
                assert answer["error"]["trace_id"]
                counters = server.handlers.metrics
                assert counters.counter_value("service.requests.crashed") == 0
                assert counters.counter_value("service.requests.errors") == 1
            finally:
                await server.stop()

        run(main())

    @pytest.mark.parametrize("optimizer, option", [
        ("bo", "refit_every"), ("smac", "refit_every"), ("smac", "acquisition"), ("anneal", "step_scale"),
        ("cmaes", "sigma0"), ("pso", "inertia"), ("bestconfig", "shrink"),
    ])
    def test_removed_option_is_a_type_error_and_a_400(self, optimizer, option):
        """A constructor parameter that became a constant (CHANGES.md, PR 24) is gone for every caller."""
        import repro.optimizers
        from repro.core.manager import _REGISTRY

        space = ConfigurationSpace("t")
        space.add(FloatParameter("x", 0.0, 1.0))
        with pytest.raises(TypeError, match=option):
            getattr(repro.optimizers, _REGISTRY[optimizer])(space, **{option: 1})

        async def main():
            server, _ = await start_server(MemoryTrialStore())
            try:
                body = create_body(optimizer=optimizer, optimizer_options={option: 1})
                status, answer = await raw_request(server, "POST", "/sessions", body)
                assert status == 400 and "bad options" in answer["error"]["message"], answer
                assert option in answer["error"]["message"]
                assert server.handlers.metrics.counter_value("service.requests.crashed") == 0
            finally:
                await server.stop()

        run(main())

    def test_only_a_path_with_a_session_id_reaches_a_session_row(self):
        async def main():
            server, _ = await start_server(MemoryTrialStore())
            try:
                for path in ("/sessions/{id}/ask", "/sessions/ID/ask", "/sessions//ask", "/ask"):
                    status, _ = await raw_request(server, "POST", path, {"n": 1})
                    assert status == 404, path  # no row, or the row of a session nobody created
                assert server.handlers.metrics.counter_value("service.requests.crashed") == 0
            finally:
                await server.stop()

        run(main())

    def test_a_bug_in_a_handler_is_the_only_500(self, monkeypatch):
        async def broken_status(self, session_id):
            raise KeyError(session_id)

        monkeypatch.setattr(ServiceHandlers, "status", broken_status)

        async def main():
            server, _ = await start_server(MemoryTrialStore())
            try:
                status, answer = await raw_request(server, "GET", "/sessions/s1", None)
                assert status == 500 and "KeyError" in answer["error"]["message"]
                assert answer["error"]["trace_id"]
                assert server.handlers.metrics.counter_value("service.requests.crashed") == 1
            finally:
                await server.stop()

        run(main())


# -- framing: what `_read_request` refuses before there is a request to route ----------
HEAD = b"POST /sessions HTTP/1.1\r\nHost: t\r\n"
FRAMING = [
    ("request-line-too-long", b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 400),
    ("request-line-malformed", b"GET\r\n\r\n", 400),
    ("header-line-20k", HEAD + b"X-Pad: " + b"a" * 20_000 + b"\r\n\r\n", 400),
    ("header-line-70k", HEAD + b"X-Pad: " + b"a" * 70_000 + b"\r\n\r\n", 400),
    ("header-line-malformed", HEAD + b"no colon here\r\n\r\n", 400),
    ("content-length-text", HEAD + b"Content-Length: ten\r\n\r\n", 400),
    ("content-length-negative", HEAD + b"Content-Length: -5\r\n\r\n", 400),
    ("body-over-limit", HEAD + b"Content-Length: 99999999999\r\n\r\n", 413),
]


class TestFraming:
    """Malformed framing is answered once — a JSON 4xx — and the connection
    dropped; it never surfaces as an exception in the connection task."""

    @pytest.mark.parametrize("raw, expected", [pytest.param(*row[1:], id=row[0]) for row in FRAMING])
    def test_rejection_answers_then_closes(self, raw, expected):
        async def main():
            unhandled = []
            asyncio.get_running_loop().set_exception_handler(lambda loop, context: unhandled.append(context))
            server, _ = await start_server(MemoryTrialStore())
            try:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(raw)
                await writer.drain()
                answer = await asyncio.wait_for(reader.read(), timeout=10)  # to EOF: the server closed
                writer.close()
                head, _, data = answer.partition(b"\r\n\r\n")
                assert int(head.split()[1]) == expected
                assert b"connection: close" in head.lower()
                assert json.loads(data)["error"]["status"] == expected
                await asyncio.sleep(0)  # let a failed connection task report itself
                assert unhandled == []
                assert server.handlers.metrics.counter_value("service.requests.crashed") == 0
            finally:
                await server.stop()

        run(main())


# -- property: a valid body with one field replaced by any JSON value never crashes ----
VALID_BODIES = {
    "/sessions": create_body(
        space=space_with(
            parameters=[param(prior={"kind": "normal", "mean": 0.5, "std": 0.2}, default=0.0, log=False),
                        {"type": "int", "name": "n", "lower": 1, "upper": 8},
                        {"type": "categorical", "name": "c", "choices": ["a", "b"], "weights": [1, 2]}],
            conditions=[{"kind": "gt", "child": "c", "parent": "n", "threshold": 2}],
        ),
        max_cost=50.0, optimizer_options={}, session_id="fresh", resume=False, strict=False,
        lint_ignore=["SP402"],
    ),
    "/sessions#target": {
        "target": {"system": "redis", "workload": "ycsb-b", "metric": "throughput", "seed": 0, "noise": 0.03},
        "optimizer": "random", "max_trials": 2,
    },
    "/sessions/s1/ask": {"n": 1, "fidelity": 1.0, "session_id": "s1"},
    "/sessions/s1/tell": {
        "config": {"x": 0.25, "n": 2}, "metrics": {"loss": 1.0}, "cost": 1.0, "status": "succeeded",
        "fidelity": 1.0, "context": {"host": "a"}, "ask_id": 0, "report_id": "r-0", "session_id": "s1",
    },
    "/sessions/t1/step": {"n": 1},
}


def field_paths(value, prefix=()):
    """Every replaceable position in a JSON value: each key, each index."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from field_paths(child, (*prefix, key))


MUTATIONS = [(route, path) for route, body in VALID_BODIES.items() for path in field_paths(body)]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mutation=st.sampled_from(MUTATIONS), value=json_values)
def test_no_request_body_is_a_crash(mutation, value):
    route, path = mutation
    body = copy.deepcopy(VALID_BODIES[route])
    at = body
    for key in path[:-1]:
        at = at[key]
    at[path[-1]] = value

    async def main():
        server = TuningServer(ServiceHandlers(SessionManager(MemoryTrialStore())))
        try:
            for setup in ("s1", "t1"):
                if setup in route:
                    spec = VALID_BODIES["/sessions#target"] if setup == "t1" else create_body()
                    await server.handlers.create_session({**spec, "session_id": setup})
            if "s1" in route:
                await server.handlers.ask("s1", {"n": 1})
            status, payload, _, _ = await server._serve_request(
                "POST", route.partition("#")[0], {}, json.dumps(body).encode()
            )
            assert status in (200, 400, 409), (route, path, value, payload)
            assert server.handlers.metrics.counter_value("service.requests.crashed") == 0
        finally:
            await server.handlers.close()

    run(main())
