"""Replay smoke: record short campaigns, then replay them bit-exactly.

The CI `replay-smoke` job runs this end to end on **both** durable
backends (JSON journal and SQLite): a seeded SMAC session with a batch
ask, a crash, and a simulated process kill + resume is journaled, and so
is a closed-loop BO campaign with four trials in flight on a simulated
clock and one crash; `repro replay` (the CLI, in-process) re-executes each
from the store alone and must report a bit-exact match. As a negative
control the journal is then corrupted (one score tampered with) and the
replay must diverge at exactly that trial with a `history` digest delta.

Run: PYTHONPATH=src python examples/replay_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as repro_main
from repro.core import SessionManager, TrialReport
from repro.core.stores import JsonJournalStore, SqliteTrialStore
from repro.exceptions import SystemCrashError
from repro.execution import SimulatedClockExecutor
from repro.space import CategoricalParameter, ConfigurationSpace, FloatParameter, IntegerParameter

SESSION_ID = "replay-smoke"
IN_FLIGHT_ID = "replay-smoke-in-flight"
N_TRIALS = 14
CORRUPT_TRIAL = 6


def make_space() -> ConfigurationSpace:
    space = ConfigurationSpace("replay-smoke", seed=0)
    space.add(FloatParameter("x", 0.0, 1.0, default=0.5))
    space.add(IntegerParameter("n", 1, 64, log=True, default=8))
    space.add(CategoricalParameter("mode", ["a", "b", "c"], default="a"))
    return space


def metric(config) -> dict[str, float]:
    return {"score": config["x"] * 2.0 + config["n"] * 0.01}


def record_campaign(store) -> None:
    """A short but shape-rich SMAC campaign: batch ask, crash, kill+resume."""
    manager = SessionManager(store)
    session = manager.create(
        make_space(),
        optimizer="smac",
        seed=7,
        max_trials=N_TRIALS + 10,
        optimizer_options={"n_candidates": 24, "n_trees": 8},
        session_id=SESSION_ID,
    )
    suggestions = session.ask(count=3)
    for sugg in (suggestions[1], suggestions[0], suggestions[2]):
        session.tell(TrialReport(config=sugg.config, metrics=metric(sugg.config), ask_id=sugg.ask_id))
    for i in range(5):
        (sugg,) = session.ask()
        if i == 2:  # one crashed trial: replay must re-impute identically
            session.tell(TrialReport(config=sugg.config, status="failed", ask_id=sugg.ask_id))
        else:
            session.tell(TrialReport(config=sugg.config, metrics=metric(sugg.config), ask_id=sugg.ask_id))
    # Simulated SIGKILL: drop the live session, resume from the journal.
    session = manager.resume(SESSION_ID)
    assert session.epoch == 1, f"resume should start epoch 1, got {session.epoch}"
    for _ in range(N_TRIALS - 8):
        (sugg,) = session.ask()
        session.tell(TrialReport(config=sugg.config, metrics=metric(sugg.config), ask_id=sugg.ask_id))


def record_in_flight_campaign(store) -> None:
    """BO with four trials in flight on a simulated clock; the fifth evaluation crashes."""
    evaluations = {"n": 0}

    def benchmark(config):
        evaluations["n"] += 1
        if evaluations["n"] == 5:
            raise SystemCrashError("refused configuration")
        return metric(config), 1.0 + 4.0 * config["x"]  # varied durations: completions reorder

    executor = SimulatedClockExecutor(4)
    SessionManager(store).create(
        make_space(), optimizer="bo", seed=3, max_trials=N_TRIALS,
        optimizer_options={"n_init": 6, "n_candidates": 24}, session_id=IN_FLIGHT_ID,
        evaluator=benchmark, executor=executor,
    ).run()
    serial_s = sum(record["cost"] for record in store.load_trials(IN_FLIGHT_ID))
    assert 0 < executor.wall_clock_s < serial_s / 2, "four machines should more than halve the wall time"


def replay_cli(store_path: str, expect_exit: int, session_id: str = SESSION_ID) -> None:
    code = repro_main(["replay", session_id, "--store", store_path])
    assert code == expect_exit, f"repro replay exited {code}, expected {expect_exit}"


def corrupt_json_journal(journal: Path) -> None:
    lines = journal.read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if isinstance(record, dict) and record.get("trial_id") == CORRUPT_TRIAL:
            record["metrics"]["score"] = 1234.5
            lines[i] = json.dumps(record)
    journal.write_text("\n".join(lines) + "\n")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        # -- JSON journal backend ------------------------------------------
        json_path = str(Path(tmp) / "store-json")
        store = JsonJournalStore(json_path)
        record_campaign(store)
        record_in_flight_campaign(store)
        store.close()
        print(f"[json] recorded {N_TRIALS} trials twice (ask/tell; 4 in flight); replaying ...")
        replay_cli(json_path, expect_exit=0)
        replay_cli(json_path, expect_exit=0, session_id=IN_FLIGHT_ID)

        # -- SQLite backend ------------------------------------------------
        sqlite_path = str(Path(tmp) / "store.sqlite")
        store = SqliteTrialStore(sqlite_path)
        record_campaign(store)
        record_in_flight_campaign(store)
        store.close()
        print(f"[sqlite] recorded {N_TRIALS} trials twice (ask/tell; 4 in flight); replaying ...")
        replay_cli(sqlite_path, expect_exit=0)
        replay_cli(sqlite_path, expect_exit=0, session_id=IN_FLIGHT_ID)

        # -- negative control: tampered journal must diverge ---------------
        corrupt_json_journal(Path(json_path) / f"{SESSION_ID}.journal.jsonl")
        print(f"[json] corrupted trial {CORRUPT_TRIAL}; replay must diverge ...")
        replay_cli(json_path, expect_exit=1)

        manager = SessionManager(JsonJournalStore(json_path))
        report = manager.replay_session(SESSION_ID)
        assert not report.ok
        assert report.divergence.trial_id == CORRUPT_TRIAL, report.divergence
        assert "history" in report.divergence.digest_delta, report.divergence
        manager.close()

    print("replay smoke: OK (json + sqlite bit-exact, in-flight included; corruption detected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
