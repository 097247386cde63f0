"""The service workloads (``svc_random``, ``svc_mixed``).

A server subprocess (``server_main.py``) and, in this process, two
closed-loop ``ServiceClient`` workers on one event loop: each sends its next
request only when the previous one is answered, so a slow server receives
less load. Evaluation happens client-side on seeded simulated Redis
instances; the server only sees the generated configurations' results.

After the measured window the server is stopped, and the store it wrote is
reopened here to check it against what the clients saw acknowledged.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.codec import config_from_values
from repro.core.evaluation import run_evaluation
from repro.core.manager import SessionManager
from repro.core.stores import open_store
from repro.service.client import ServiceClient, ServiceError
from repro.space.serialize import space_to_dict
from repro.targets import make_evaluator, objective_for

from . import env
from .campaign import Raw, check_journal, remeasured_gain, report_for

SYSTEM, WORKLOAD, METRIC = "redis", "default", "throughput"
#: Completed sessions resumed after the server stops (``resume_first_ask_ms`` is their median).
RESUMES = 5


@dataclass(frozen=True)
class ServiceSpec:
    model_sessions: int  # live SMAC sessions, all driven by worker A (0: both workers drive random)
    model_trials: int  # trials per SMAC session before it is completed and replaced
    light_sessions: int  # live random sessions in total
    light_trials: int  # trials per random session before it is completed and replaced
    warmup_s: float


@dataclass
class Slot:
    """One live session position of a worker; generations replace each other."""

    worker: int
    index: int
    optimizer: str
    budget: int
    generation: int = 0
    session_id: str = ""
    seed: int = 0
    acked: int = 0
    live_budget: int = 0  # this generation's budget (the first one is staggered)
    evaluator: Any = None
    space: Any = None
    trajectory: Any = None


@dataclass
class Finished:
    session_id: str
    optimizer: str
    seed: int
    acked: int
    full_budget: bool
    best_config: dict | None
    trajectory_sha: str


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    store: Path
    report_path: Path


def start_server(workdir: Path, tag: str, traced: bool) -> Server:
    """Spawn the server and wait until it reports its port."""
    store = workdir / f"journal-{tag}"
    report_path = workdir / f"server-{tag}.json"
    argv = [
        sys.executable,
        str(Path(__file__).with_name("server_main.py")),
        "--store", str(store),
        "--report", str(report_path),
    ]
    if traced:
        argv.append("--trace")
    proc = subprocess.Popen(argv, env=env.child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line:
        proc.wait()
        raise RuntimeError(f"server exited with {proc.returncode} before becoming ready")
    return Server(proc, json.loads(line)["port"], store, report_path)


def stop_server(server: Server) -> dict[str, Any]:
    """SIGTERM, wait for the drain, and return the report the server wrote."""
    server.proc.send_signal(signal.SIGTERM)
    try:
        server.proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        server.proc.kill()
        server.proc.wait()
        raise RuntimeError("server did not drain within 20 s of SIGTERM") from None
    finally:
        server.proc.stdout.close()
    return json.loads(server.report_path.read_text())


class Load:
    """The two workers, their slots, and what they measured."""

    def __init__(self, spec: ServiceSpec, workload: str, seed: int, raw: Raw) -> None:
        self.spec, self.workload, self.seed, self.raw = spec, workload, seed, raw
        objective = objective_for(METRIC)
        self.objective = {"name": objective.name, "minimize": objective.minimize}
        self.finished: list[Finished] = []
        self.measuring = False
        self.degraded = 0.0
        if spec.model_sessions:
            plan = [("smac", spec.model_sessions, spec.model_trials),
                    ("random", spec.light_sessions, spec.light_trials)]
        else:
            half = spec.light_sessions // 2
            plan = [("random", half, spec.light_trials),
                    ("random", spec.light_sessions - half, spec.light_trials)]
        self.workers = [
            [Slot(worker, index, optimizer, budget) for index in range(count)]
            for worker, (optimizer, count, budget) in enumerate(plan)
        ]

    # -- session churn ---------------------------------------------------------
    async def _timed(self, call) -> tuple[Any, float]:
        """Await one client call and time it; a failure is counted and re-raised."""
        self.raw.attempted += 1
        t0 = time.perf_counter()
        try:
            return await call, time.perf_counter() - t0
        except Exception:
            self.raw.failed += 1
            raise

    async def create(self, client, slot: Slot) -> None:
        """(Re)create the slot's session; the first generation is staggered so
        completions — and history sizes — are spread evenly from the start."""
        siblings = len(self.workers[slot.worker])
        budget = slot.budget
        if slot.generation == 0:
            budget = max(2, math.ceil(slot.budget * (slot.index + 1) / siblings))
        slot.seed = ((self.seed * 10 + slot.worker) * 100 + slot.index) * 1000 + slot.generation
        slot.session_id = f"{self.workload}-s{self.seed}-w{slot.worker}-{slot.index}-g{slot.generation}"
        slot.evaluator, slot.space, _objective = make_evaluator(
            SYSTEM, WORKLOAD, METRIC, seed=slot.seed
        )
        slot.acked = 0
        slot.live_budget = budget
        slot.trajectory = hashlib.sha256()
        await self._timed(
            client.create_session(
                space=space_to_dict(slot.space),
                optimizer=slot.optimizer,
                objectives=[self.objective],
                # One trial of head-room: the resume check asks once more.
                max_trials=budget + 1,
                seed=slot.seed,
                session_id=slot.session_id,
            )
        )

    async def retire(self, client, slot: Slot) -> None:
        """Complete a session that spent its budget, keep its result, replace it."""
        await self._timed(client.complete(slot.session_id))
        status, _ = await self._timed(client.status(slot.session_id))
        if slot.optimizer != "random":
            text, _ = await self._timed(client.metrics())
            self.degraded += _prom_value(text, "repro_surrogate_degraded_total")
        self.finished.append(
            Finished(
                slot.session_id,
                slot.optimizer,
                slot.seed,
                slot.acked,
                slot.live_budget == slot.budget,
                status.get("best_config"),
                slot.trajectory.hexdigest(),
            )
        )
        slot.generation += 1
        await self.create(client, slot)

    # -- the closed loop -------------------------------------------------------
    async def step(self, client, slot: Slot) -> None:
        model = slot.optimizer != "random"
        suggestions, ask_s = await self._timed(client.ask(slot.session_id))
        suggestion = suggestions[0]
        config = config_from_values(suggestion.config, slot.space)  # validates against the space
        slot.trajectory.update(json.dumps(suggestion.config, sort_keys=True).encode())
        result = run_evaluation(slot.evaluator, config)
        if not result.ok:
            self.raw.crashed_trials += 1
        report = report_for(suggestion, result, METRIC, f"{slot.session_id}-{suggestion.ask_id}")
        answer, tell_s = await self._timed(client.tell(slot.session_id, report))
        slot.acked += not answer["duplicate"]
        if self.measuring:
            self.raw.trials += 1
            self.raw.tuner_s += ask_s + tell_s
            if model or not self.spec.model_sessions:
                self.raw.asks.append(ask_s)
                self.raw.tells.append(tell_s)
            if not model:
                self.raw.light.extend((ask_s, tell_s))
        if slot.acked >= slot.live_budget:
            await self.retire(client, slot)

    async def worker(self, client, slots: list[Slot], deadline: float) -> None:
        while True:
            for slot in slots:
                if time.perf_counter() >= deadline:
                    return
                try:
                    await self.step(client, slot)
                except (ServiceError, OSError, asyncio.TimeoutError):
                    pass  # refused, non-2xx or timed out: counted by _timed, the loop goes on


def _prom_value(text: str, name: str) -> float:
    match = re.search(rf"^{re.escape(name)} (\S+)$", text, re.MULTILINE)
    return float(match.group(1)) if match else 0.0


async def _drive(load: Load, server: Server, seconds: float) -> str:
    """Warm up, measure for ``seconds``, and return the final ``/metrics`` text."""
    clients = [ServiceClient("127.0.0.1", server.port) for _ in load.workers]
    start = time.perf_counter()
    deadline = start + load.spec.warmup_s + seconds
    tasks = [
        asyncio.ensure_future(load.worker(client, slots, deadline))
        for client, slots in zip(clients, load.workers)
    ]
    await asyncio.sleep(load.spec.warmup_s)
    load.measuring = True
    window_start = time.perf_counter()
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    load.raw.measured_wall_s = time.perf_counter() - window_start
    return await clients[0].metrics()


async def _create_all(load: Load, server: Server) -> None:
    client = ServiceClient("127.0.0.1", server.port)
    for slots in load.workers:
        for slot in slots:
            await load.create(client, slot)


def _set_up(load: Load, workdir: Path, tag: str, traced: bool) -> tuple[Server, float]:
    """One full set-up: server start until ready, then every initial session."""
    t0 = time.perf_counter()
    server = start_server(workdir, tag, traced)
    try:
        asyncio.run(_create_all(load, server))
    except BaseException:
        server.proc.kill()
        server.proc.wait()
        raise
    return server, time.perf_counter() - t0


def drop_last_journal_record(store_dir: Path) -> None:
    """Self-test fault: lose the newest record of one JSON journal."""
    journal = sorted(store_dir.glob("*.journal.jsonl"))[0]
    lines = journal.read_bytes().splitlines(keepends=True)
    journal.write_bytes(b"".join(lines[:-1]))


def _after_stop(load: Load, server: Server, raw: Raw, break_journal: bool) -> None:
    """Reopen the store the server wrote and check it against the clients' view."""
    if break_journal:
        drop_last_journal_record(server.store)
    acked = {f.session_id: f.acked for f in load.finished}
    optimizer_of = {f.session_id: f.optimizer for f in load.finished}
    for slots in load.workers:
        for slot in slots:
            acked[slot.session_id] = slot.acked
            optimizer_of[slot.session_id] = slot.optimizer
    manager = SessionManager(open_store(server.store, backend="json"))
    stored = set(manager.list_sessions())
    raw.check("journal.sessions", stored == set(acked), f"{len(stored)} stored, {len(acked)} created")
    diverged = []
    for session_id in sorted(stored & set(acked)):
        records = manager.store.load_trials(session_id)
        check_journal(raw, records, acked[session_id], session_id)
        raw.journaled_trials += len(records)
        if optimizer_of[session_id] == "random" and records:
            report = manager.replay_session(session_id)
            if not report.ok:
                diverged.append(session_id)
    raw.check("replay.zero_divergences", not diverged, ", ".join(diverged))
    raw.store_bytes = sum(f.stat().st_size for f in server.store.glob("*.journal.jsonl"))

    primary = "smac" if load.spec.model_sessions else "random"
    done = [f for f in load.finished if f.optimizer == primary]
    # The newest full-budget sessions, revisited in turn when fewer than RESUMES finished.
    pool = ([f for f in done if f.full_budget] or done)[-RESUMES:]
    for i in range(RESUMES if pool else 0):
        raw.attempted += 1
        t0 = time.perf_counter()
        manager.resume(pool[i % len(pool)].session_id).ask()
        raw.resumes.append(time.perf_counter() - t0)
    for finished in sorted(done, key=lambda f: f.session_id):
        raw.trajectory.update(f"{finished.session_id}:{finished.trajectory_sha}".encode())
        if finished.best_config is not None:
            raw.gains.append(
                remeasured_gain(SYSTEM, WORKLOAD, METRIC, finished.seed, finished.best_config)
            )
    manager.close()
    raw.info.update(
        {
            "sessions_completed": len(load.finished),
            "sessions_completed_full_budget": sum(f.full_budget for f in load.finished),
            "trajectory_sessions": len(done),
        }
    )


def run(
    spec: ServiceSpec,
    workload: str,
    seed: int,
    seconds: float,
    workdir: Path,
    setup_repeats: int,
    traced: bool = False,
    break_journal: bool = False,
) -> Raw:
    raw = Raw()
    cpu0 = time.process_time()
    server = None
    for attempt in range(setup_repeats):
        if server is not None:
            stop_server(server)
        load = Load(spec, workload, seed, raw)
        server, setup_s = _set_up(load, workdir, f"{attempt}", traced)
        raw.setups.append(setup_s)
    try:
        metrics_text = asyncio.run(_drive(load, server, seconds))
    except BaseException:
        server.proc.kill()
        server.proc.wait()
        raise
    raw.server = stop_server(server)
    raw.server["requests"] = _prom_value(metrics_text, "repro_service_requests_total")
    raw.server["shed_total"] = _prom_value(metrics_text, "repro_service_requests_shed")
    raw.peak_rss_mb = raw.server["peak_rss_mb"]
    raw.cpu_s = time.process_time() - cpu0
    raw.check("degraded_total", load.degraded == 0, f"{load.degraded:g} degraded suggestions")
    _after_stop(load, server, raw, break_journal)
    raw.info.update(
        {
            "optimizers": {"smac": spec.model_sessions, "random": spec.light_sessions},
            "store_backend": "json",
            "target": {"system": SYSTEM, "workload": WORKLOAD, "metric": METRIC},
            "trials_per_session": {"smac": spec.model_trials, "random": spec.light_trials},
            "clients": len(load.workers),
            "warmup_s": spec.warmup_s,
            "measured_s": seconds,
            "crashed_trials": raw.crashed_trials,
        }
    )
    return raw
