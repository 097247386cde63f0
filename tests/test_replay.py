"""Deterministic replay tests: provenance capture, ``replay_session``
verification across every registered optimizer, crash-recovery epochs,
corruption detection, and the 60-trial JSON/SQLite acceptance demo."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import SessionManager, TrialReport
from repro.core.codec import decode_trial, encode_trial
from repro.core.manager import optimizer_names
from repro.core.stores import JsonJournalStore, MemoryTrialStore, SqliteTrialStore, open_store
from repro.exceptions import SystemCrashError
from repro.space import CategoricalParameter, ConfigurationSpace, FloatParameter, IntegerParameter
from repro.telemetry import SessionTrace

from .conftest import assert_healthy

#: Options keeping surrogate optimizers fast enough for per-optimizer sweeps.
FAST_OPTIONS = {
    "bo": {"n_candidates": 24},
    "smac": {"n_candidates": 24, "n_trees": 8},
    "grid": {"points_per_dim": 4},
}


def make_space(seed: int = 3) -> ConfigurationSpace:
    space = ConfigurationSpace("replay", seed=seed)
    space.add(FloatParameter("x", 0.0, 1.0, default=0.5))
    space.add(IntegerParameter("n", 1, 64, log=True, default=8))
    space.add(CategoricalParameter("mode", ["a", "b", "c"], default="a"))
    return space


def metric(config) -> dict[str, float]:
    return {"score": config["x"] * 2.0 + config["n"] * 0.01 + (0.5 if config["mode"] == "c" else 0.0)}


def drive(session, n: int, fail_every: int = 0) -> None:
    """Tell ``n`` single-ask trials; every ``fail_every``-th one crashes."""
    for i in range(n):
        (sugg,) = session.ask()
        if fail_every and (i + 1) % fail_every == 0:
            report = TrialReport(config=sugg.config, status="failed", ask_id=sugg.ask_id)
        else:
            report = TrialReport(config=sugg.config, metrics=metric(sugg.config), ask_id=sugg.ask_id)
        session.tell(report)
    assert_healthy(session.optimizer)  # every campaign driven here is a healthy one


class TestProvenanceCapture:
    def test_journaled_records_carry_provenance(self):
        manager = SessionManager(MemoryTrialStore())
        session = manager.create(make_space(), optimizer="random", seed=11, max_trials=10, session_id="p1")
        drive(session, 3)
        records = manager.store.load_trials("p1")
        assert len(records) == 3
        for call, record in enumerate(records):
            prov = record["provenance"]
            assert prov["version"] == 2
            assert prov["seed"] == 11
            assert prov["epoch"] == 0
            assert prov["ask"] == {"call": call, "n": 1, "observed": call, "i": 0}
            assert set(prov["digest"]) >= {"rng", "history"}
            assert len(prov["space"]) == 12

    def test_executor_timings_are_journaled_once_in_the_context(self):
        from repro.execution import ThreadedExecutor

        manager = SessionManager(MemoryTrialStore())
        with ThreadedExecutor(max_workers=2) as executor:
            manager.create(
                make_space(), optimizer="random", seed=11, max_trials=4, session_id="p5",
                evaluator=lambda config: {"score": float(config["x"])}, executor=executor,
            ).run()
        records = manager.store.load_trials("p5")
        assert len(records) == 4
        for record in records:
            assert {"queue_s", "attempt_s", "attempts", "retries"} <= set(record["context"])
            assert "executor" not in record["provenance"]

    def test_provenance_is_a_record_field(self):
        manager = SessionManager(MemoryTrialStore())
        session = manager.create(make_space(), optimizer="random", seed=11, max_trials=10, session_id="p4")
        drive(session, 2)
        space = session.optimizer.space
        for trial, record in zip(session.optimizer.history, manager.store.load_trials("p4")):
            assert not hasattr(trial, "provenance")
            with pytest.raises(AttributeError):  # slotted: nothing can hang it back on
                trial.provenance = record["provenance"]
            assert set(record["provenance"]) == {"version", "digest", "space", "seed", "epoch", "ask", "library"}
            # encode_trial journals the block it is given; decode_trial leaves it in the record.
            assert encode_trial(trial, provenance=record["provenance"]) == record
            decoded = decode_trial(record, space)
            assert not hasattr(decoded, "provenance")
            assert encode_trial(decoded) == {k: v for k, v in record.items() if k != "provenance"}

    def test_batch_ask_coordinates(self):
        manager = SessionManager(MemoryTrialStore())
        session = manager.create(make_space(), optimizer="random", seed=1, max_trials=10, session_id="p2")
        suggs = session.ask(count=3)
        # Tell out of order: the journaled "i" must follow the batch index.
        for sugg in (suggs[2], suggs[0], suggs[1]):
            session.tell(TrialReport(config=sugg.config, metrics=metric(sugg.config), ask_id=sugg.ask_id))
        asks = [r["provenance"]["ask"] for r in manager.store.load_trials("p2")]
        assert [a["i"] for a in asks] == [2, 0, 1]
        assert all(a == {"call": 0, "n": 3, "observed": 0, "i": a["i"]} for a in asks)

    def test_resume_bumps_epoch(self):
        manager = SessionManager(MemoryTrialStore())
        session = manager.create(make_space(), optimizer="random", seed=5, max_trials=20, session_id="p3")
        drive(session, 2)
        resumed = manager.resume("p3")
        assert resumed.epoch == 1
        drive(resumed, 1)
        epochs = [r["provenance"]["epoch"] for r in manager.store.load_trials("p3")]
        assert epochs == [0, 0, 1]


class TestReplayAllOptimizers:
    @pytest.mark.parametrize("name", optimizer_names())
    def test_replay_is_bit_exact(self, name):
        manager = SessionManager(MemoryTrialStore())
        session = manager.create(
            make_space(),
            optimizer=name,
            seed=13,
            max_trials=40,
            optimizer_options=FAST_OPTIONS.get(name),
            session_id=f"opt-{name}",
        )
        # Mixed shapes: a batch ask(count=3), singles, and a failure.
        suggs = session.ask(count=3)
        session.tell(TrialReport(config=suggs[1].config, metrics=metric(suggs[1].config), ask_id=suggs[1].ask_id))
        session.tell(TrialReport(config=suggs[0].config, status="failed", ask_id=suggs[0].ask_id))
        session.tell(TrialReport(config=suggs[2].config, metrics=metric(suggs[2].config), ask_id=suggs[2].ask_id))
        drive(session, 4, fail_every=3)

        report = manager.replay_session(f"opt-{name}")
        assert report.ok, report.format()
        assert report.n_records == 7
        assert report.n_verified == 7
        assert report.n_unverified == 0
        assert report.n_failures_verified == 2  # one batch failure + one drive failure
        assert report.n_epochs == 1
        assert report.n_suggest_calls == 5

    @pytest.mark.parametrize("name", ["random", "smac", "anneal"])
    def test_replay_across_kill_and_resume(self, name):
        """Two-epoch journal (simulated SIGKILL + resume) replays bit-exactly,
        including the re-imputed crash scores of both epochs."""
        manager = SessionManager(MemoryTrialStore())
        session = manager.create(
            make_space(),
            optimizer=name,
            seed=29,
            max_trials=60,
            optimizer_options=FAST_OPTIONS.get(name),
            session_id="kill",
        )
        drive(session, 5, fail_every=2)
        # The process "dies" here: pending state is dropped, a new process
        # resumes from the journal alone (fresh RNG = new epoch).
        resumed = manager.resume("kill")
        assert resumed.epoch == 1
        drive(resumed, 5, fail_every=2)
        resumed2 = manager.resume("kill")
        assert resumed2.epoch == 2
        drive(resumed2, 2)

        report = manager.replay_session("kill")
        assert report.ok, report.format()
        assert report.n_epochs == 3
        assert report.n_records == 12
        assert report.n_verified == 12
        assert report.n_failures_verified == 4

    @pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffled"])
    def test_a_resumed_grid_tries_the_points_it_has_not(self, tmp_path, shuffle):
        """Four lattice points under a budget of ten, two told before the kill:
        the resumed epoch passes over the warm-started points, so the session
        tries each point once (the parent journaled a, b, a, b), and the
        two-epoch journal replays."""
        space = ConfigurationSpace("grid", seed=0)
        space.add(CategoricalParameter("k", ["a", "b", "c", "d"]))
        manager = SessionManager(JsonJournalStore(tmp_path / "store"))
        session = manager.create(
            space, optimizer="grid", seed=5, max_trials=10, session_id="grid",
            optimizer_options={"shuffle": shuffle},
        )

        def tell_next(session) -> None:
            (sugg,) = session.ask()
            session.tell(TrialReport(config=sugg.config, metrics={"score": "abcd".index(sugg.config["k"])},
                                     ask_id=sugg.ask_id))

        for _ in range(2):
            tell_next(session)
        resumed = SessionManager(JsonJournalStore(tmp_path / "store")).resume("grid")
        assert resumed.epoch == 1
        while not resumed.is_complete:
            tell_next(resumed)
        tried = [record["config"]["k"] for record in manager.store.load_trials("grid")]
        assert (sorted(tried) if shuffle else tried) == ["a", "b", "c", "d"]
        report = manager.replay_session("grid")
        assert report.ok, report.format()
        assert report.n_epochs == 2 and report.n_verified == 4


class TestDivergenceDetection:
    def _session_with_journal(self, tmp_path, n=8):
        store = JsonJournalStore(tmp_path / "store")
        manager = SessionManager(store)
        session = manager.create(
            make_space(), optimizer="smac", seed=7, max_trials=40,
            optimizer_options=FAST_OPTIONS["smac"], session_id="div",
        )
        drive(session, n)
        store.close()
        return tmp_path / "store" / "div.journal.jsonl"

    def _corrupt(self, journal_path, trial_id, mutate):
        lines = journal_path.read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if isinstance(record, dict) and record.get("trial_id") == trial_id:
                mutate(record)
                lines[i] = json.dumps(record)
        journal_path.write_text("\n".join(lines) + "\n")

    def test_corrupted_score_names_trial_and_digest_delta(self, tmp_path):
        journal = self._session_with_journal(tmp_path)

        def corrupt(record):
            record["metrics"]["score"] = 999.0

        self._corrupt(journal, 5, corrupt)
        manager = SessionManager(JsonJournalStore(tmp_path / "store"))
        trace = SessionTrace(name="replay-test")
        report = manager.replay_session("div", trace=trace)
        assert not report.ok
        assert report.divergence.trial_id == 5
        assert report.divergence.kind == "digest"
        assert "history" in report.divergence.digest_delta
        delta = report.divergence.digest_delta["history"]
        assert delta["recorded"] != delta["replayed"]
        # The divergence travels through the trace too, as an event span.
        events = [op for op in trace.ops if op.name == "replay.divergence"]
        assert len(events) == 1
        assert events[0].attributes["trial_id"] == 5
        assert events[0].attributes["severity"] == "error"

    def test_corrupted_config_is_a_config_divergence(self, tmp_path):
        journal = self._session_with_journal(tmp_path)

        def corrupt(record):
            record["config"]["x"] = 0.123456789

        self._corrupt(journal, 3, corrupt)
        manager = SessionManager(JsonJournalStore(tmp_path / "store"))
        report = manager.replay_session("div")
        assert not report.ok
        assert report.divergence.trial_id == 3
        assert report.divergence.kind == "config"

    def test_report_dict_shape(self, tmp_path):
        self._session_with_journal(tmp_path, n=3)
        manager = SessionManager(JsonJournalStore(tmp_path / "store"))
        report = manager.replay_session("div")
        data = report.to_dict()
        assert data["ok"] is True
        assert data["divergence"] is None
        assert data["n_records"] == 3
        assert "DIVERGED" not in report.format()


class TestLegacyJournals:
    def test_records_without_provenance_replay_unverified(self, tmp_path):
        store = JsonJournalStore(tmp_path / "store")
        manager = SessionManager(store)
        session = manager.create(make_space(), optimizer="random", seed=3, max_trials=10, session_id="legacy")
        drive(session, 4)
        store.close()
        # Strip provenance, simulating a journal written before capture.
        journal = tmp_path / "store" / "legacy.journal.jsonl"
        lines = []
        for line in journal.read_text().splitlines():
            record = json.loads(line)
            if isinstance(record, dict):
                record.pop("provenance", None)
            lines.append(json.dumps(record))
        journal.write_text("\n".join(lines) + "\n")
        manager = SessionManager(JsonJournalStore(tmp_path / "store"))
        report = manager.replay_session("legacy")
        assert report.ok, report.format()
        assert report.n_verified == 0
        assert report.n_unverified == 4
        assert report.n_suggest_calls == 0


    def test_resumed_epoch_seeded_the_version_1_way_is_history_verified_only(self, tmp_path):
        """Provenance version 1 re-seeded every resume with the session seed.
        That derivation is gone, so such an epoch's RNG stream cannot be
        re-run: its records take the unverifiable-schedule path (history
        digest and crash imputations still checked) instead of diverging."""
        store = JsonJournalStore(tmp_path / "store")
        manager = SessionManager(store)
        session = manager.create(make_space(), optimizer="random", seed=5, max_trials=20, session_id="v1")
        drive(session, 3)
        resumed = manager.resume("v1")
        resumed.optimizer.seed = 5  # what a version-1 resume built
        resumed.optimizer.rng = np.random.default_rng(5)
        drive(resumed, 3, fail_every=2)
        store.close()
        journal = tmp_path / "store" / "v1.journal.jsonl"
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert [r["config"] for r in records[3:]] == [r["config"] for r in records[:3]]  # the old bug, recorded
        for record in records:
            record["provenance"]["version"] = 1
        journal.write_text("".join(json.dumps(r) + "\n" for r in records))
        report = SessionManager(JsonJournalStore(tmp_path / "store")).replay_session("v1")
        assert report.ok, report.format()
        assert (report.n_verified, report.n_unverified) == (3, 3)
        assert report.n_failures_verified == 1
        assert report.n_suggest_calls == 3  # epoch 0 only


class TestAcceptance:
    """The issue's acceptance demo: a 60-trial SMAC + BO campaign with a
    mid-campaign kill, replayed bit-exactly on both durable backends."""

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_sixty_trial_smac_bo_campaign(self, tmp_path, backend):
        if backend == "json":
            store = JsonJournalStore(tmp_path / "store")
        else:
            store = SqliteTrialStore(tmp_path / "store.sqlite")
        manager = SessionManager(store)
        specs = {
            "smac-60": ("smac", FAST_OPTIONS["smac"]),
            "bo-60": ("bo", FAST_OPTIONS["bo"]),
        }
        for session_id, (name, options) in specs.items():
            session = manager.create(
                make_space(), optimizer=name, seed=42, max_trials=60,
                optimizer_options=options, session_id=session_id,
            )
            drive(session, 25, fail_every=7)
            for _ in range(2):  # two batch asks exercise constant-liar paths
                suggs = session.ask(count=4)
                for sugg in suggs:
                    session.tell(TrialReport(config=sugg.config, metrics=metric(sugg.config), ask_id=sugg.ask_id))
            resumed = manager.resume(session_id)  # simulated SIGKILL
            drive(resumed, 27, fail_every=9)

        for session_id, (name, _options) in specs.items():
            report = manager.replay_session(session_id)
            assert report.ok, report.format()
            assert report.n_records == 60
            assert report.n_verified == 60
            assert report.n_epochs == 2
            assert report.optimizer == name
        store.close()

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_three_epoch_bo_campaign_with_a_crash_in_each_epoch(self, tmp_path, backend):
        """Resume and replay get each epoch's optimizer (and seed) from one
        function, so a journal of several incarnations replays clean."""
        store = open_store(tmp_path / ("store.sqlite" if backend == "sqlite" else "store"), backend=backend)
        manager = SessionManager(store)
        session = manager.create(
            make_space(), optimizer="bo", seed=17, max_trials=40,
            optimizer_options=FAST_OPTIONS["bo"], session_id="bo-3",
        )
        drive(session, 9, fail_every=4)
        for epoch in (1, 2):
            session = manager.resume("bo-3")  # simulated SIGKILL
            assert session.epoch == epoch
            drive(session, 7, fail_every=3)
        records = store.load_trials("bo-3")
        seeds = [r["provenance"]["seed"] for r in records]
        assert len(set(seeds)) == 3 and seeds[0] == 17  # one stream per epoch, epoch 0 on the session seed
        report = manager.replay_session("bo-3")
        assert report.ok, report.format()
        assert (report.n_records, report.n_verified, report.n_epochs) == (23, 23, 3)
        assert report.n_failures_verified == 2 + 2 + 2
        store.close()

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_bo_campaign_with_four_trials_in_flight_killed_and_resumed(self, tmp_path, backend):
        """Keep-k-in-flight is a mode of the one session loop: each trial is
        its own suggest call, made at the history position its predecessor's
        completion left, so the journal replays like any other, kill included."""
        from repro.execution import SimulatedClockExecutor

        class Killed(Exception):
            """The process dies while four trials are in flight."""

        store = open_store(tmp_path / ("store.sqlite" if backend == "sqlite" else "store"), backend=backend)
        manager = SessionManager(store)
        evaluations = {"n": 0}

        def benchmark(config):
            evaluations["n"] += 1
            if evaluations["n"] == 14:
                raise Killed()
            if evaluations["n"] == 5:
                raise SystemCrashError("refused configuration")
            return metric(config), 1.0 + 4.0 * config["x"]  # varied durations: completions reorder

        session = manager.create(
            make_space(), optimizer="bo", seed=23, max_trials=24, optimizer_options=FAST_OPTIONS["bo"],
            session_id="in-flight", evaluator=benchmark, executor=SimulatedClockExecutor(4),
        )
        with pytest.raises(Killed):
            session.run()
        journaled = len(store.load_trials("in-flight"))
        assert journaled == 14 - 4  # the three in flight and the one starting died with the process
        session = manager.resume("in-flight")
        session.evaluator, session.executor = benchmark, SimulatedClockExecutor(4)
        assert session.run().n_trials == 24

        records = store.load_trials("in-flight")
        asks = [r["provenance"]["ask"] for r in records]
        assert all(a["n"] == 1 and a["i"] == 0 for a in asks)
        assert [a["call"] for a in asks[:journaled]] != list(range(journaled))  # told in completion order
        report = manager.replay_session("in-flight")
        assert report.ok, report.format()
        assert (report.n_records, report.n_epochs, report.n_failures_verified) == (24, 2, 1)
        # The killed epoch's journal misses the suggest calls that were in flight
        # when it died, so its RNG draws are unrecoverable: replay verifies that
        # epoch by history digest; the resumed epoch ran to the end, every
        # configuration verified.
        assert (report.n_unverified, report.n_verified) == (journaled, 24 - journaled)
        store.close()
