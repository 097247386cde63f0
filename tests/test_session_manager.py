"""SessionManager lifecycle, the unified ask/tell payloads, durable
journaling through TuningSession, and the space codec."""

from __future__ import annotations

import gc
import tempfile
import tracemalloc

import numpy as np
import pytest

from repro.core import Objective, TuningSession
from repro.core.codec import SuggestRequest, Suggestion, TrialReport, encode_trial
from repro.core.journal import StorageError, UnknownSessionError
from repro.core.manager import SessionManager, make_optimizer, optimizer_names
from repro.core.stores import JsonJournalStore, MemoryTrialStore, SqliteTrialStore
from repro.exceptions import OptimizerError, ReproError
from repro.space import (
    BetaPrior,
    CategoricalParameter,
    ConfigurationSpace,
    EqualsCondition,
    FloatParameter,
    GreaterThanCondition,
    InCondition,
    IntegerParameter,
    NormalPrior,
    RatioConstraint,
)
from repro.space.serialize import SpaceCodecError, space_from_dict, space_to_dict
from repro.targets import make_system

from .conftest import assert_healthy


def evaluate(config) -> dict[str, float]:
    return {"score": (config["x"] - 0.3) ** 2 + 0.01 * config["n"]}


class TestOptimizerRegistry:
    def test_names_are_sorted_and_known(self):
        names = optimizer_names()
        assert names == sorted(names)
        assert {"random", "bo", "smac", "grid"} <= set(names)

    def test_make_optimizer(self, simple_space):
        opt = make_optimizer("random", simple_space, Objective("score"), seed=1)
        assert len(opt.suggest(2)) == 2

    def test_unknown_name_and_bad_options(self, simple_space):
        names = "['anneal', 'bestconfig', 'bo', 'cmaes', 'grid', 'hyperband', 'pso', 'random', 'smac']"
        with pytest.raises(ReproError) as unknown:
            make_optimizer("nope", simple_space, Objective("score"))
        assert str(unknown.value) == f"unknown optimizer 'nope'; choose from {names}"
        with pytest.raises(ReproError) as bad:
            make_optimizer("random", simple_space, Objective("score"), options={"bogus_kw": 1})
        assert str(bad.value).startswith("bad options for optimizer 'random': ")
        assert "unexpected keyword argument 'bogus_kw'" in str(bad.value)


class TestAskTell:
    def test_unified_payloads(self, simple_space):
        manager = SessionManager()
        session = manager.create(simple_space, optimizer="random", seed=0, max_trials=5)
        suggestions = session.ask(SuggestRequest(n=2))
        assert all(isinstance(s, Suggestion) for s in suggestions)
        assert [s.ask_id for s in suggestions] == [0, 1]
        # ask() also takes a bare int, wrapping it in the same request type
        assert len(session.ask(1)) == 1

        trial, duplicate = session.tell(
            TrialReport(config=suggestions[0].config, metrics={"score": 1.0},
                        ask_id=suggestions[0].ask_id)
        )
        assert not duplicate
        assert trial.trial_id == 0
        assert trial.metric("score") == 1.0

    def test_tell_accepts_wire_dict(self, simple_space):
        manager = SessionManager()
        session = manager.create(simple_space, optimizer="random", seed=0, max_trials=5)
        (s,) = session.ask(1)
        # the HTTP body shape and the in-process dataclass are the same schema
        trial, _ = session.tell({"config": dict(s.config), "metrics": {"score": 2.0}})
        assert trial.metric("score") == 2.0

    def test_tell_dedup_by_report_id(self, simple_space):
        manager = SessionManager()
        session = manager.create(simple_space, optimizer="random", seed=0, max_trials=5)
        (s,) = session.ask(1)
        report = TrialReport(config=s.config, metrics={"score": 1.0}, report_id="r1")
        first, dup1 = session.tell(report)
        second, dup2 = session.tell(report)
        assert (dup1, dup2) == (False, True)
        assert second is first  # the recorded object, by id — not a search or a copy
        assert len(session.optimizer.history) == 1

    def test_ask_respects_budget(self, simple_space):
        manager = SessionManager()
        session = manager.create(simple_space, optimizer="random", seed=0, max_trials=2)
        suggestions = session.ask(SuggestRequest(n=10))
        assert len(suggestions) == 2  # capped to remaining budget
        for s in suggestions:
            session.tell(TrialReport(config=s.config, metrics={"score": 0.0}))
        assert session.is_complete
        with pytest.raises(OptimizerError):
            session.ask(1)

    def test_failed_trial_report(self, simple_space):
        manager = SessionManager()
        session = manager.create(simple_space, optimizer="random", seed=0, max_trials=5)
        (s,) = session.ask(1)
        trial, _ = session.tell(
            TrialReport(config=s.config, status="failed", context={"error": "oom"})
        )
        assert trial.status.value == "failed"


class TestDurability:
    def test_tells_are_journaled(self, simple_space, tmp_path):
        store = JsonJournalStore(tmp_path)
        manager = SessionManager(store)
        session = manager.create(simple_space, optimizer="random", seed=0,
                                 max_trials=4, session_id="s1")
        for s in session.ask(SuggestRequest(n=3)):
            session.tell(TrialReport(config=s.config, metrics=evaluate(s.config),
                                     report_id=f"r-{s.ask_id}"))
        records = store.load_trials("s1")
        assert [r["trial_id"] for r in records] == [0, 1, 2]
        assert [r["report_id"] for r in records] == ["r-0", "r-1", "r-2"]

    def test_run_journals_closed_loop(self, simple_space, tmp_path):
        store = JsonJournalStore(tmp_path)
        manager = SessionManager(store)
        session = manager.create(simple_space, optimizer="random", seed=0,
                                 max_trials=5, session_id="s1", evaluator=evaluate)
        result = session.run()
        assert result.n_trials == 5
        assert len(store.load_trials("s1")) == 5

    def test_resume_replays_exact_history(self, simple_space, tmp_path):
        store = JsonJournalStore(tmp_path)
        with SessionManager(store) as manager:
            session = manager.create(simple_space, optimizer="random", seed=7,
                                     max_trials=10, session_id="s1")
            told = []
            for s in session.ask(SuggestRequest(n=4)):
                trial, _ = session.tell(
                    TrialReport(config=s.config, metrics=evaluate(s.config),
                                cost=2.0, report_id=f"r-{s.ask_id}")
                )
                told.append(trial)

            fresh = SessionManager(store)  # same store object: still open
            resumed = fresh.resume("s1")
            history = resumed.optimizer.history.trials
            assert len(history) == 4
            for old, new in zip(told, history):
                assert new.trial_id == old.trial_id
                assert new.metrics == old.metrics
                assert new.cost == old.cost
                assert {k: new.config[k] for k in new.config} == {
                    k: old.config[k] for k in old.config
                }
            # dedup state came back too: a retried tell is recognised
            replayed, dup = resumed.tell(
                TrialReport(config=told[0].config, metrics=told[0].metrics,
                            report_id="r-0")
            )
            assert dup and replayed.trial_id == told[0].trial_id
            # and new work continues the id sequence
            (s,) = resumed.ask(1)
            trial, _ = resumed.tell(TrialReport(config=s.config, metrics=evaluate(s.config)))
            assert trial.trial_id == 4

    def test_resume_does_not_replay_the_rng_stream(self, simple_space):
        """A resumed epoch draws from its own stream: re-seeding it with the
        session seed would re-suggest the dead process's trials bit for bit
        and spend evaluation budget on configurations already measured."""
        manager = SessionManager(MemoryTrialStore())
        session = manager.create(simple_space, optimizer="random", seed=7,
                                 max_trials=20, session_id="s1")
        first = []
        for _ in range(4):
            (s,) = session.ask()
            first.append(s.config)
            session.tell(TrialReport(config=s.config, metrics=evaluate(s.config), ask_id=s.ask_id))
        resumed = manager.resume("s1")
        second = [s.config for _ in range(4) for s in resumed.ask()]
        assert not [c for c in second if c in first]
        # ... and it is still a pure function of (seed, epoch, journal).
        again = manager.resume("s1")
        assert [s.config for _ in range(4) for s in again.ask()] == second

    def test_batch_ask_replays_deterministically(self, simple_space, tmp_path):
        """ask(count=k) through SMAC's constant-liar batch path is a pure
        function of (seed, journal): two fresh resumes must produce
        bit-identical batches, and the journaled configs must equal the
        suggestions they were told for."""
        store = JsonJournalStore(tmp_path)
        options = {"n_init": 4, "n_trees": 6, "n_candidates": 32}
        with SessionManager(store) as manager:
            session = manager.create(simple_space, optimizer="smac", seed=9,
                                     max_trials=50, session_id="batch",
                                     optimizer_options=options)
            suggested = []
            for s in session.ask(count=4):
                suggested.append(dict(s.config))
                session.tell(TrialReport(config=s.config, metrics=evaluate(s.config),
                                         ask_id=s.ask_id))
            # Past n_init now: the next ask exercises the fantasy batch path.
            for s in session.ask(count=3):
                suggested.append(dict(s.config))
                session.tell(TrialReport(config=s.config, metrics=evaluate(s.config),
                                         ask_id=s.ask_id))
            assert_healthy(session.optimizer)
        journaled = [r["config"] for r in store.load_trials("batch")]
        assert journaled == suggested

        def resumed_batch():
            with SessionManager(JsonJournalStore(tmp_path)) as fresh:
                session = fresh.resume("batch")
                batch = [dict(s.config) for s in session.ask(count=4)]
                assert_healthy(session.optimizer)
                return batch

        first, second = resumed_batch(), resumed_batch()
        assert first == second
        assert len({tuple(sorted(c.items())) for c in first}) == 4

    def test_ask_count_keyword(self, simple_space):
        manager = SessionManager()
        session = manager.create(simple_space, optimizer="random", seed=0, max_trials=9)
        assert len(session.ask(count=3)) == 3
        assert len(session.ask()) == 1
        with pytest.raises(OptimizerError, match="not both"):
            session.ask(SuggestRequest(n=2), count=2)

    def test_resume_unknown_session(self):
        """One typed fact, raised from one place, whichever call meets the gap."""
        manager = SessionManager()
        for touch in (manager.resume, manager.meta, manager.status, manager.complete):
            with pytest.raises(UnknownSessionError, match="unknown session 'ghost'"):
                touch("ghost")
        assert issubclass(UnknownSessionError, StorageError)

    def test_status_snapshot(self, simple_space):
        manager = SessionManager()
        session = manager.create(simple_space, optimizer="random", seed=0,
                                 max_trials=3, session_id="s1",
                                 objectives=Objective("score", minimize=True))
        for s in session.ask(SuggestRequest(n=3)):
            session.tell(TrialReport(config=s.config, metrics=evaluate(s.config)))
        status = manager.status("s1")
        assert status["n_trials"] == 3 and status["complete"]
        best = min(t.metric("score") for t in session.optimizer.history.trials)
        assert status["best_value"] == pytest.approx(best)
        manager.complete("s1")
        assert manager.meta("s1").status == "completed"

    def test_create_duplicate_id_rejected(self, simple_space):
        manager = SessionManager()
        manager.create(simple_space, session_id="s1")
        with pytest.raises(StorageError):
            manager.create(simple_space, session_id="s1")

    @pytest.mark.parametrize("backend", ["memory", "json", "sqlite"])
    @pytest.mark.parametrize(
        "mistake",
        [{"optimizer": "nope"}, {"optimizer_options": {"zzz": 1}}, {"max_trials": 0}],
        ids=["unknown-optimizer", "unknown-option", "zero-budget"],
    )
    def test_rejected_create_leaves_nothing_behind(self, simple_space, tmp_path, backend, mistake):
        store = {
            "memory": MemoryTrialStore,
            "json": lambda: JsonJournalStore(tmp_path / "journal"),
            "sqlite": lambda: SqliteTrialStore(tmp_path / "trials.sqlite"),
        }[backend]()
        with SessionManager(store) as manager:
            with pytest.raises(ReproError):
                manager.create(simple_space, session_id="s1", **mistake)
            assert manager.list_sessions() == [] and not manager.exists("s1")
            # Nothing of the failed attempt is in the way of the corrected one.
            session = manager.create(simple_space, session_id="s1", optimizer="random", max_trials=2)
            assert session.session_id == "s1" and manager.list_sessions() == ["s1"]

    def test_list_and_exists(self, simple_space):
        manager = SessionManager()
        manager.create(simple_space, session_id="b")
        manager.create(simple_space, session_id="a")
        assert manager.list_sessions() == ["a", "b"]
        assert manager.exists("a") and not manager.exists("zzz")


class TestSessionWithoutStore:
    def test_plain_session_still_asks_and_tells(self, simple_space):
        from repro.optimizers import RandomSearchOptimizer

        session = TuningSession(RandomSearchOptimizer(simple_space, seed=0),
                                None, max_trials=3)
        (s,) = session.ask(1)
        trial, dup = session.tell(TrialReport(config=s.config, metrics={"score": 1.0}))
        assert trial.trial_id == 0 and not dup

    def test_run_without_evaluator_raises(self, simple_space):
        from repro.optimizers import RandomSearchOptimizer

        session = TuningSession(RandomSearchOptimizer(simple_space, seed=0),
                                None, max_trials=3)
        with pytest.raises(OptimizerError, match="no evaluator"):
            session.run()


class TestSpaceCodec:
    def _rich_space(self) -> ConfigurationSpace:
        space = ConfigurationSpace("rich", seed=0)
        space.add(FloatParameter("lr", 1e-5, 1.0, default=1e-3, log=True,
                                 prior=NormalPrior(0.5, 0.2)))
        space.add(IntegerParameter("depth", 1, 12, default=3))
        space.add(FloatParameter("dropout", 0.0, 0.9, default=0.1,
                                 prior=BetaPrior(2.0, 5.0)))
        space.add(CategoricalParameter("head", ["linear", "mlp", "attn"],
                                       default="mlp", weights=[0.2, 0.5, 0.3]))
        space.add(IntegerParameter("mlp_width", 16, 1024, default=64, log=True))
        space.add_condition(EqualsCondition("mlp_width", "head", "mlp"))
        space.add(FloatParameter("temp", 0.1, 10.0, default=1.0))
        space.add_condition(GreaterThanCondition("temp", "depth", 4))
        space.add(CategoricalParameter("sched", ["none", "cos", "step"], default="none"))
        space.add_condition(InCondition("sched", "head", ["mlp", "attn"]))
        return space

    def test_round_trip(self):
        space = self._rich_space()
        rebuilt = space_from_dict(space_to_dict(space))
        assert rebuilt.names == space.names
        assert len(rebuilt.conditions) == len(space.conditions)
        # sampling respects bounds/conditions on the rebuilt space
        for config in rebuilt.sample_many(20):
            for name in config:
                if name in config.active:
                    assert rebuilt[name].validate(config[name])
        # defaults survive
        assert rebuilt.default_configuration()["head"] == "mlp"

    def test_strict_rejects_constraints(self, conditional_space):
        with pytest.raises(SpaceCodecError):
            space_to_dict(conditional_space, strict=True)
        spec = space_to_dict(conditional_space, strict=False)
        assert spec["dropped"]  # named, not silently lost
        rebuilt = space_from_dict(spec)
        assert rebuilt.names == conditional_space.names

    def test_unsupported_version(self):
        with pytest.raises(SpaceCodecError):
            space_from_dict({"version": 42, "parameters": [{"type": "bool", "name": "b"}]})

    def test_json_clean(self):
        import json

        json.dumps(space_to_dict(self._rich_space()))  # no numpy leakage


def _retained_bytes(work) -> tuple[int, object]:
    """Bytes still allocated after ``work()`` returns and a full collection,
    with the result it returns (kept alive until the measurement is taken)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = work()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, kept
    finally:
        tracemalloc.stop()


def bytes_per_hosted_trial(system: str, rounds: int = 200) -> float:
    """What a told trial of a JSON-journalled ``random`` session on ``system``'s
    space keeps, with constant metrics and no simulator in the loop."""
    with tempfile.TemporaryDirectory() as directory:
        manager = SessionManager(JsonJournalStore(directory, fsync=False))
        session = manager.create(make_system(system).space, optimizer="random", seed=0,
                                 max_trials=rounds + 5, lint=False)

        def ask_and_tell(n: int) -> None:
            for _ in range(n):
                (s,) = session.ask()
                session.tell(TrialReport(config=s.config, metrics={"score": 1.0}, ask_id=s.ask_id))

        ask_and_tell(5)  # the space's key index, hash and first journal line are per session
        retained, _ = _retained_bytes(lambda: ask_and_tell(rounds))
        return retained / rounds


class TestHostedFootprint:
    """What a hosted session keeps per told trial: a ratchet on the layout of
    ``Trial`` and ``Configuration``, not on the journal or the optimizer."""

    @pytest.mark.parametrize(("system", "limit"), [("redis", 1000), ("dbms", 1300)])
    def test_bytes_per_hosted_trial(self, system, limit):
        assert bytes_per_hosted_trial(system) < limit

    def test_bytes_per_made_configuration(self):
        space = make_system("dbms").space
        rng = np.random.default_rng(0)

        def made() -> list:
            sampled = space.sample_many(512, rng)
            return sampled + [space.make(dict(c)) for c in space.sample_many(512, rng)]

        retained, configs = _retained_bytes(made)
        assert len(configs) == 1024
        assert retained < 600 * 1024


class TestEncodeTrial:
    def test_encode_includes_report_id(self, simple_space):
        manager = SessionManager()
        session = manager.create(simple_space, optimizer="random", seed=0, max_trials=2)
        (s,) = session.ask(1)
        trial, _ = session.tell(TrialReport(config=s.config, metrics={"score": 1.0}))
        record = encode_trial(trial, report_id="rr")
        assert record["report_id"] == "rr"
        assert record["trial_id"] == trial.trial_id
        assert record["metrics"] == {"score": 1.0}
