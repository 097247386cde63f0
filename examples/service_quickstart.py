"""Tuning as a service, end to end: boot ``repro serve`` as a real
subprocess, drive a full tuning session over HTTP, scrape the Prometheus
endpoint, read the server's kept request trees back through ``repro trace``,
and shut the server down cleanly.

This is the service analogue of ``quickstart.py``: the client defines a
knob space, the server hosts the optimizer and journals every trial to a
durable store — kill the server at any point and a restart resumes the
session from disk (see docs/service.md and tests/test_service.py for
that crash drill).

Run:  python examples/service_quickstart.py
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import uuid
from pathlib import Path

from repro.core.codec import TrialReport
from repro.service import ServiceClient
from repro.service.client import ServiceError
from repro.space import ConfigurationSpace, FloatParameter, IntegerParameter
from repro.space.serialize import space_to_dict
from repro.telemetry import SessionTrace


def evaluate(config) -> dict:
    """The client-side benchmark: any code that scores a configuration."""
    return {"loss": (config["x"] - 0.3) ** 2 + 0.05 * config["threads"]}


def check_exposition(text: str) -> int:
    """What a Prometheus scraper checks before it ingests a scrape: each
    family has exactly one ``# TYPE`` line, every sample line belongs to the
    family declared last above it, and every value is a number. Returns the
    number of families."""
    kinds: dict[str, str] = {}
    family = None
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ")
            assert family not in kinds, f"family {family} has two # TYPE lines"
            kinds[family] = kind
            continue
        name, value = line.rsplit(" ", 1)
        name = name.split("{", 1)[0]
        suffixes = ("_bucket", "_sum", "_count") if kinds.get(family) == "histogram" else ()
        assert name in {family, *(f"{family}{s}" for s in suffixes)}, f"{line!r} is outside family {family}"
        float(value)
    return len(kinds)


async def main() -> int:
    store = Path(tempfile.mkdtemp(prefix="repro-service-")) / "campaigns"

    # 1. Boot the service exactly as an operator would.
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", str(store)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        # The first line announces the bound address (port 0 = pick free).
        address = server.stdout.readline().split()[-1]
        port = int(address.rsplit(":", 1)[1])
        print(f"server up at {address}, store at {store}")
        # The client-side trace holds one `service.request` span per HTTP call.
        client_trace = SessionTrace(name="quickstart-client")
        client = ServiceClient("127.0.0.1", port, trace=client_trace)

        # 2. Create a durable session over a client-defined space.
        space = ConfigurationSpace("demo", seed=0)
        space.add(FloatParameter("x", -2.0, 2.0, default=0.0))
        space.add(IntegerParameter("threads", 1, 16, default=4))
        await client.create_session(
            space=space_to_dict(space),
            optimizer="bo",
            seed=0,
            max_trials=20,
            session_id="quickstart",
            objectives=[{"name": "loss", "minimize": True}],
        )

        # 3. The ask/evaluate/tell loop. One report_id per evaluation,
        #    reused by every retry of its tell, makes retries safe: the
        #    journal deduplicates, so even a crashing server records each
        #    trial exactly once. (Not the ask id: ask ids restart at 0
        #    when a restarted server resumes the session.)
        for _ in range(20):
            (suggestion,) = await client.ask("quickstart", n=1)
            await client.tell_reliably("quickstart", TrialReport(
                config=suggestion.config,
                metrics=evaluate(suggestion.config),
                ask_id=suggestion.ask_id,
                report_id=uuid.uuid4().hex,
            ))

        status = await client.status("quickstart")
        assert status["complete"], status
        print(f"session complete: {status['n_trials']} trials, "
              f"best loss = {status['best_value']:.4f} at {status['best_config']}")

        # 4. A client's mistake is the client's: a wrong method answers 405
        #    and a malformed body 400 — neither is a server failure.
        for method, path, body, expected in (
            ("DELETE", "/sessions/quickstart", None, 405),
            ("POST", "/sessions", {"space": {"parameters": 5}}, 400),
        ):
            try:
                await client.request(method, path, body)
            except ServiceError as err:
                assert err.status == expected, err
                print(f"{method} {path} -> {err}")
            else:
                raise AssertionError(f"{method} {path} was accepted")

        #    Nor is broken framing: a negative Content-Length or a header
        #    without a colon answers 400 over a raw socket, then the
        #    connection drops.
        for framing in (b"Content-Length: -5", b"no colon here"):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"POST /sessions HTTP/1.1\r\nHost: demo\r\n" + framing + b"\r\n\r\n")
            await writer.drain()
            status_line = (await reader.read()).split(b"\r\n", 1)[0].decode()
            writer.close()
            assert " 400 " in status_line, status_line
            print(f"{framing.decode()!r} -> {status_line}")

        # 5. Scrape the per-service Prometheus endpoint. 500 means a bug, so
        #    `repro_service_requests_crashed` above 0 fails the smoke. The
        #    server keeps or drops every request's span tree, and counts both.
        sent = len(client_trace.ops)  # the raw-socket requests above never reached a route
        metrics = await client.metrics()
        wanted = [line for line in metrics.splitlines()
                  if line.startswith(("repro_service_trials_total",
                                      "repro_service_requests_total",
                                      "repro_service_requests_crashed",
                                      "repro_service_sessions_created",
                                      "repro_service_trace_requests_"))]
        print(f"metrics scrape: {check_exposition(metrics)} families, each declared once")
        for line in wanted:
            print(f"  {line}")
        assert any(line.startswith("repro_service_trials_total 20") for line in wanted), wanted
        crashed = [line for line in wanted if line.startswith("repro_service_requests_crashed")]
        assert all(float(line.split()[-1]) == 0 for line in crashed), crashed
        decided = sum(float(line.split()[-1]) for line in wanted
                      if line.startswith("repro_service_trace_requests_"))
        assert decided == sent, (decided, sent)
        #    Every blocking step ran on the server's one worker pool, sized to
        #    its CPUs (at least 2); the wait for a worker is its own histogram.
        families = re.findall(r"^# TYPE (\S+) (\S+)$", metrics, re.M)
        assert ("repro_service_pool_wait_seconds", "histogram") in families, families
        (workers,) = re.findall(r"^repro_service_pool_workers (\S+)$", metrics, re.M)
        assert 2 <= float(workers) <= max(2, os.cpu_count() or 1), workers
        print(f"  worker pool: {float(workers):g} threads")

        #    The kept trees are readable: `GET /debug/trace` is a trace file
        #    `repro trace` analyses like any campaign's.
        trace_path = store.parent / "service-trace.json"
        trace_path.write_text(json.dumps(await client.request("GET", "/debug/trace")))
        report = subprocess.run([sys.executable, "-m", "repro", "trace", str(trace_path)],
                                capture_output=True, text=True, check=True)
        print(f"repro trace {trace_path.name}: {report.stdout.splitlines()[0]}")

        # 6. Graceful shutdown: SIGINT, then verify the clean-exit banner.
        server.send_signal(signal.SIGINT)
        out, _ = server.communicate(timeout=30)
        assert "service shut down cleanly" in out, out
        assert server.returncode == 0, server.returncode
        print("server exited cleanly")

        # The journal outlives the server — proof the session is durable.
        journal = store / "quickstart.journal.jsonl"
        n_lines = len(journal.read_text().splitlines())
        print(f"durable journal: {journal.name} holds {n_lines} trial records")
        assert n_lines == 20
        return 0
    finally:
        if server.poll() is None:
            server.kill()


if __name__ == "__main__":
    raise SystemExit(asyncio.run(main()))
