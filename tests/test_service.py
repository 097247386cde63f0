"""HTTP service tests: wire contract, concurrency, and the
kill-mid-campaign restart acceptance demo."""

from __future__ import annotations

import asyncio
import re
import socket

import pytest

from repro.core.codec import TrialReport
from repro.core.manager import SessionManager
from repro.core.stores import JsonJournalStore, MemoryTrialStore
from repro.service.client import ServiceClient, ServiceError
from repro.service.handlers import ServiceHandlers
from repro.service.server import TuningServer
from repro.space import ConfigurationSpace, FloatParameter, IntegerParameter
from repro.space.serialize import space_to_dict


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
                assert float(peak) > 0
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
            while sum(store.trial_count(sid) for sid in ids) < self.N_SESSIONS:
                await asyncio.sleep(0.02)
            await server.stop(close_handlers=False)
            mid_flight = sum(store.trial_count(sid) for sid in ids)
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
    metrics, error-envelope trace ids, and the stitched Chrome trace."""

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
                import json as _json

                error = _json.loads(body)["error"]
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

    def test_stitched_chrome_trace_shares_trace_id(self):
        from repro.telemetry import SessionTrace, stitch_chrome_trace

        async def main():
            server = TuningServer(ServiceHandlers(SessionManager(MemoryTrialStore())), port=0)
            await server.start()
            client_trace = SessionTrace(name="client")
            client = ServiceClient(server.host, server.port, timeout_s=10, trace=client_trace)
            try:
                await client.create_session(
                    space=small_space_spec(), optimizer="random", seed=0,
                    max_trials=4, session_id="stitch",
                    objectives=[{"name": "loss", "minimize": True}],
                )
                await client.run_session("stitch", evaluate, batch=2)
                server_trace = server.handlers.trace
                assert {op.trace_id for op in server_trace.ops if op.name == "http.request"} == {
                    client_trace.trace_id
                }
                stitched = stitch_chrome_trace([client_trace, server_trace])
                events = stitched["traceEvents"]
                assert {e["pid"] for e in events} == {1, 2}
                process_names = [
                    e["args"]["name"] for e in events
                    if e.get("ph") == "M" and e["name"] == "process_name"
                ]
                # One process track per side; the shared trace id lives on
                # the spans themselves (asserted above), the client track is
                # labelled with it.
                shared = client_trace.trace_id[:8]
                assert any("client" in n and shared in n for n in process_names)
                assert any("service" in n for n in process_names)
            finally:
                await server.stop()

        run(asyncio.wait_for(main(), timeout=60))
