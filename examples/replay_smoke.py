"""Replay smoke: record short campaigns, then replay them bit-exactly.

The CI `replay-smoke` job runs this end to end on **both** durable
backends (JSON journal and SQLite): a seeded SMAC session with a batch
ask, a crash, and a simulated process kill + resume is journaled, and so
is a closed-loop BO campaign with four trials in flight on a simulated
clock and one crash, and a Hyperband campaign on four configurations whose
first batch ask, holding equal configurations, is told back shuffled, each
at its own rung's budget, and one driven by `run()` with four trials in
flight on a simulated clock, each evaluated at its rung's budget; `repro replay` (the CLI, in-process) re-executes
each from the store alone and must report a bit-exact match. As a negative
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
HYPERBAND_ID = "replay-smoke-hyperband"
HYPERBAND_RUN_ID = "replay-smoke-hyperband-run"
SESSIONS = (SESSION_ID, IN_FLIGHT_ID, HYPERBAND_ID, HYPERBAND_RUN_ID)
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


def corners() -> ConfigurationSpace:
    space = ConfigurationSpace("corners", seed=0)
    space.add(IntegerParameter("n", 1, 2, default=1))
    space.add(CategoricalParameter("mode", ["a", "b"], default="a"))
    return space


def corner_score(config, fidelity: float) -> float:
    return config["n"] + (0.5 if config["mode"] == "b" else 0.0) + 1.0 / fidelity


def record_hyperband_campaign(store) -> None:
    """Hyperband on four configurations: equal ones pending together, told
    back out of order, each tell naming its own suggestion by ask id."""
    session = SessionManager(store).create(
        corners(), optimizer="hyperband", seed=5, max_trials=N_TRIALS,
        optimizer_options={"max_budget": 9, "min_budget": 1}, session_id=HYPERBAND_ID,
    )

    def tell(sugg) -> None:
        score = corner_score(sugg.config, sugg.fidelity)
        session.tell(TrialReport(config=sugg.config, metrics={"score": score}, fidelity=sugg.fidelity,
                                 ask_id=sugg.ask_id))

    batch = session.ask(count=6)
    assert len({json.dumps(sugg.config, sort_keys=True) for sugg in batch}) < len(batch), "no equal configurations"
    for k in (3, 0, 5, 1, 4, 2):
        tell(batch[k])
    while not session.is_complete:
        tell(session.ask()[0])


def record_hyperband_run(store) -> None:
    """The same Hyperband driven by ``run()``, four trials in flight on a
    simulated clock; each evaluation runs as long as its rung's budget."""
    budgets = []

    def benchmark(config, fidelity):
        budgets.append(fidelity)
        return {"score": corner_score(config, fidelity)}, fidelity

    SessionManager(store).create(
        corners(), optimizer="hyperband", seed=5, max_trials=N_TRIALS, session_id=HYPERBAND_RUN_ID,
        optimizer_options={"max_budget": 9, "min_budget": 1}, evaluator=benchmark, executor=SimulatedClockExecutor(4),
    ).run()
    journaled = sorted(record["fidelity"] for record in store.load_trials(HYPERBAND_RUN_ID))
    assert journaled == sorted(budgets) and len(set(budgets)) > 1, "each trial is journaled at its rung's budget"


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
        record_hyperband_campaign(store)
        record_hyperband_run(store)
        store.close()
        print(f"[json] recorded {N_TRIALS} trials four times (ask/tell; 4 in flight; Hyperband told; "
              "Hyperband run); replaying ...")
        for session_id in SESSIONS:
            replay_cli(json_path, expect_exit=0, session_id=session_id)

        # -- SQLite backend ------------------------------------------------
        sqlite_path = str(Path(tmp) / "store.sqlite")
        store = SqliteTrialStore(sqlite_path)
        record_campaign(store)
        record_in_flight_campaign(store)
        record_hyperband_campaign(store)
        record_hyperband_run(store)
        store.close()
        print(f"[sqlite] recorded {N_TRIALS} trials four times (ask/tell; 4 in flight; Hyperband told; "
              "Hyperband run); replaying ...")
        for session_id in SESSIONS:
            replay_cli(sqlite_path, expect_exit=0, session_id=session_id)

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

    print("replay smoke: OK (json + sqlite bit-exact, in-flight and both Hyperband drives included; "
          "corruption detected)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
