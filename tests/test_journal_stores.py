"""TrialStore contract tests across every backend, plus crash recovery."""

from __future__ import annotations

import errno
import json
import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core.journal import (
    AppendResult,
    SessionMeta,
    StorageError,
    TransientStorageError,
    new_session_id,
)
from repro.core.manager import SessionManager
from repro.core.stores import (
    JsonJournalStore,
    MemoryTrialStore,
    SqliteTrialStore,
    open_store,
)
from repro.exceptions import ReproError
from repro.space.serialize import space_from_dict

BACKENDS = ("memory", "json", "sqlite")


def make_store(backend: str, tmp_path: Path):
    if backend == "memory":
        return MemoryTrialStore()
    if backend == "json":
        return JsonJournalStore(tmp_path / "journal")
    return SqliteTrialStore(tmp_path / "trials.sqlite")


def simple_meta(session_id: str = "s1", **overrides) -> SessionMeta:
    base = dict(
        session_id=session_id,
        space={
            "version": 1,
            "name": "t",
            "parameters": [
                {"type": "float", "name": "x", "lower": 0.0, "upper": 1.0, "default": 0.5}
            ],
            "conditions": [],
        },
        optimizer={"name": "random", "seed": 0, "options": {}},
        objectives=[{"name": "score", "minimize": True}],
        max_trials=10,
    )
    base.update(overrides)
    return SessionMeta(**base)


def record(i: int, report_id: str | None = None) -> dict:
    rec = {
        "version": 2,
        "trial_id": 999,  # stores must overwrite this with the journal position
        "config": {"x": 0.1 * i},
        "status": "succeeded",
        "metrics": {"score": float(i)},
        "cost": 1.0,
        "fidelity": None,
        "context": {},
    }
    if report_id is not None:
        rec["report_id"] = report_id
    return rec


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    s = make_store(request.param, tmp_path)
    yield s
    s.close()


class TestContract:
    def test_session_lifecycle(self, store):
        assert store.get_session("s1") is None
        assert store.list_sessions() == []
        store.create_session(simple_meta("s1"))
        store.create_session(simple_meta("s2", max_trials=5))
        assert store.list_sessions() == ["s1", "s2"]
        meta = store.get_session("s2")
        assert meta.max_trials == 5
        assert meta.status == "active"

    def test_duplicate_session_id_rejected(self, store):
        store.create_session(simple_meta("s1"))
        with pytest.raises(StorageError):
            store.create_session(simple_meta("s1"))

    @pytest.mark.parametrize("session_id", ["a/b", ".hidden", "-flag", "sp ace", "x" * 129, "é"])
    def test_session_id_outside_the_url_grammar_is_refused_before_persisting(self, store, session_id):
        """One grammar for every backend: an id no URL can address is the
        caller's mistake (not a storage failure) and leaves nothing behind."""
        with pytest.raises(ReproError, match="invalid session id") as err:
            SessionManager(store).create(space_from_dict(simple_meta().space), session_id=session_id, lint=False)
        assert not isinstance(err.value, StorageError)
        assert store.list_sessions() == []

    def test_update_session(self, store):
        store.create_session(simple_meta("s1"))
        store.update_session("s1", status="completed", extra={"note": "done"})
        meta = store.get_session("s1")
        assert meta.status == "completed"
        assert meta.extra == {"note": "done"}
        with pytest.raises(StorageError):
            store.update_session("nope", status="completed")

    def test_append_assigns_contiguous_ids(self, store):
        store.create_session(simple_meta("s1"))
        results = [store.append_trial("s1", record(i)) for i in range(5)]
        assert [r.trial_id for r in results] == [0, 1, 2, 3, 4]
        assert all(isinstance(r, AppendResult) and not r.duplicate for r in results)
        loaded = store.load_trials("s1")
        assert [r["trial_id"] for r in loaded] == [0, 1, 2, 3, 4]
        assert len(store.load_trials("s1")) == 5

    def test_round_trip_preserves_payload(self, store):
        store.create_session(simple_meta("s1"))
        rec = record(3, report_id="r-3")
        rec["metrics"]["aux"] = 2.5
        rec["context"] = {"node": "w1"}
        store.append_trial("s1", rec)
        (loaded,) = store.load_trials("s1")
        assert loaded["config"] == rec["config"]
        assert loaded["metrics"] == {"score": 3.0, "aux": 2.5}
        assert loaded["context"] == {"node": "w1"}
        assert loaded["report_id"] == "r-3"

    def test_report_id_dedup(self, store):
        store.create_session(simple_meta("s1"))
        first = store.append_trial("s1", record(0, report_id="once"))
        again = store.append_trial("s1", record(0, report_id="once"))
        assert not first.duplicate and again.duplicate
        assert again.trial_id == first.trial_id
        assert len(store.load_trials("s1")) == 1
        # records without a report_id are never deduplicated
        store.append_trial("s1", record(1))
        store.append_trial("s1", record(1))
        assert len(store.load_trials("s1")) == 3

    def test_unknown_session_raises(self, store):
        with pytest.raises(StorageError):
            store.append_trial("ghost", record(0))
        with pytest.raises(StorageError):
            store.load_trials("ghost")

    def test_sessions_are_isolated(self, store):
        store.create_session(simple_meta("a"))
        store.create_session(simple_meta("b"))
        store.append_trial("a", record(0, report_id="r0"))
        assert len(store.load_trials("a")) == 1
        assert len(store.load_trials("b")) == 0
        # same report_id in another session is not a duplicate
        res = store.append_trial("b", record(0, report_id="r0"))
        assert not res.duplicate


class TestReopen:
    """Durable backends must survive a close/reopen cycle."""

    @pytest.mark.parametrize("backend", ["json", "sqlite"])
    def test_reopen_sees_everything(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.create_session(simple_meta("s1"))
        for i in range(4):
            store.append_trial("s1", record(i, report_id=f"r-{i}"))
        store.close()

        fresh = make_store(backend, tmp_path)
        assert fresh.list_sessions() == ["s1"]
        assert len(fresh.load_trials("s1")) == 4
        # dedup state survives the reopen
        assert fresh.append_trial("s1", record(2, report_id="r-2")).duplicate
        # and new appends continue the id sequence
        assert fresh.append_trial("s1", record(9)).trial_id == 4
        fresh.close()


class TestJsonJournalRecovery:
    def test_torn_tail_is_discarded(self, tmp_path):
        store = JsonJournalStore(tmp_path)
        store.create_session(simple_meta("s1"))
        for i in range(3):
            store.append_trial("s1", record(i))
        store.close()

        journal = tmp_path / "s1.journal.jsonl"
        with journal.open("a", encoding="utf-8") as fh:
            fh.write('{"version": 2, "trial_id": 3, "config"')  # torn mid-write

        fresh = JsonJournalStore(tmp_path)
        assert len(fresh.load_trials("s1")) == 3  # torn line dropped, prefix kept
        assert fresh.append_trial("s1", record(3)).trial_id == 3
        assert [r["trial_id"] for r in fresh.load_trials("s1")] == [0, 1, 2, 3]
        fresh.close()

    def test_interior_corruption_raises(self, tmp_path):
        store = JsonJournalStore(tmp_path)
        store.create_session(simple_meta("s1"))
        for i in range(3):
            store.append_trial("s1", record(i))
        store.close()

        journal = tmp_path / "s1.journal.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        lines[1] = "NOT JSON AT ALL\n"  # corruption before the tail
        journal.write_text("".join(lines))

        fresh = JsonJournalStore(tmp_path)
        with pytest.raises(StorageError):
            fresh.load_trials("s1")
        fresh.close()

    def test_completed_session_leaves_the_tables(self, tmp_path):
        """A server journals sessions without end; only live ones may cost it memory."""
        store = JsonJournalStore(tmp_path, fsync=False)
        store.create_session(simple_meta("s1"))
        for i in range(3):
            store.append_trial("s1", record(i, report_id=f"r-{i}"))
        SessionManager(store).complete("s1")
        assert "s1" not in store._counts and "s1" not in store._report_ids
        # A late duplicate is still one: the tables are recovered from disk.
        assert store.append_trial("s1", record(9, report_id="r-1")) == AppendResult(trial_id=1, duplicate=True)
        assert len(store.load_trials("s1")) == 3
        store.close()


KILL_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {src!r})
    from tests.test_journal_stores import record, simple_meta
    from repro.core.stores import open_store

    store = open_store({path!r}, backend={backend!r})
    store.create_session(simple_meta("victim"))
    print("ready", flush=True)
    i = 0
    while True:  # append until killed
        store.append_trial("victim", record(i, report_id=f"r-{{i}}"))
        print(i, flush=True)
        i += 1
    """
)


@pytest.mark.parametrize("backend", ["json", "sqlite"])
def test_sigkill_mid_write_recovers(backend, tmp_path):
    """The acceptance crash test: SIGKILL a writer, reopen, nothing
    acknowledged is lost and nothing is duplicated or corrupt."""
    path = str(tmp_path / ("store.sqlite" if backend == "sqlite" else "store"))
    repo_root = str(Path(__file__).resolve().parent.parent)
    script = KILL_SCRIPT.format(src=os.path.join(repo_root, "src"), path=path, backend=backend)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([repo_root, os.path.join(repo_root, "src")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=repo_root,
    )
    try:
        assert proc.stdout.readline().strip() == "ready"
        acked = -1
        deadline = time.monotonic() + 30
        while acked < 20 and time.monotonic() < deadline:
            line = proc.stdout.readline().strip()
            if line:
                acked = int(line)
        assert acked >= 20, f"writer too slow (acked={acked})"
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)

    store = open_store(path, backend=backend)
    records = store.load_trials("victim")
    # every acknowledged append survived, ids are the journal positions
    assert len(records) >= acked + 1
    assert [r["trial_id"] for r in records] == list(range(len(records)))
    assert len({r["report_id"] for r in records}) == len(records)
    # the store keeps working after recovery
    assert store.append_trial("victim", record(0)).trial_id == len(records)
    store.close()


class TestOpenStore:
    def test_infers_backend_from_path(self, tmp_path):
        sqlite = open_store(tmp_path / "x.sqlite")
        assert isinstance(sqlite, SqliteTrialStore)
        sqlite.close()
        journal = open_store(tmp_path / "plain-dir")
        assert isinstance(journal, JsonJournalStore)
        journal.close()

    def test_explicit_backend_wins(self, tmp_path):
        store = open_store(tmp_path / "odd-name", backend="sqlite")
        assert isinstance(store, SqliteTrialStore)
        store.close()


def test_new_session_id_unique():
    ids = {new_session_id() for _ in range(100)}
    assert len(ids) == 100


class TestInjectedStorageFaults:
    """The store contract under injected low-level failures: retryable
    errors are :class:`TransientStorageError`, and a failed append never
    leaves a phantom record behind."""

    def test_sqlite_locked_is_transient_and_retryable(self, tmp_path):
        store = SqliteTrialStore(tmp_path / "trials.sqlite")
        store.create_session(simple_meta())
        real = store._db

        class LockedOnce:
            """Delegating connection that fails the first transaction."""

            def __init__(self, db):
                self._db = db
                self.tripped = False

            def __getattr__(self, name):
                return getattr(self._db, name)

            def execute(self, sql, *args):
                if not self.tripped and sql.lstrip().upper().startswith("BEGIN"):
                    self.tripped = True
                    raise sqlite3.OperationalError("database is locked")
                return self._db.execute(sql, *args)

        store._db = LockedOnce(real)
        with pytest.raises(TransientStorageError):
            store.append_trial("s1", record(0))
        assert store.append_trial("s1", record(0)).trial_id == 0  # plain retry
        assert len(store.load_trials("s1")) == 1
        store._db = real
        store.close()

    def test_sqlite_error_classifier(self):
        from repro.core.stores.sqlite import _storage_error

        for message in ("database is locked", "database is busy", "disk is full"):
            err = _storage_error("x", sqlite3.OperationalError(message))
            assert isinstance(err, TransientStorageError), message
        err = _storage_error("x", sqlite3.IntegrityError("UNIQUE constraint failed"))
        assert isinstance(err, StorageError)
        assert not isinstance(err, TransientStorageError)

    @pytest.mark.parametrize("code", [errno.EIO, errno.ENOSPC])
    def test_json_fsync_failure_leaves_no_phantom_record(self, tmp_path, monkeypatch, code):
        store = JsonJournalStore(tmp_path / "journal")  # fsync on: the durable config
        store.create_session(simple_meta())
        store.append_trial("s1", record(0))

        def broken_fsync(fd):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(TransientStorageError):
            store.append_trial("s1", record(1))
        monkeypatch.undo()
        # The failed append was rolled back: no torn or phantom line.
        assert [r["trial_id"] for r in store.load_trials("s1")] == [0]
        assert store.append_trial("s1", record(1)).trial_id == 1
        store.close()

    def test_json_unopenable_journal_is_transient(self, tmp_path):
        store = JsonJournalStore(tmp_path / "journal")
        store.create_session(simple_meta())
        path = store._journal_path("s1")
        path.mkdir()  # opening a directory for append fails like a bad disk
        with pytest.raises(TransientStorageError):
            store.append_trial("s1", record(0))
        path.rmdir()
        assert store.append_trial("s1", record(0)).trial_id == 0
        store.close()

    def test_faulty_store_with_empty_plan_is_transparent(self, tmp_path):
        from repro.chaos import FaultPlan, FaultyStore

        store = FaultyStore(
            JsonJournalStore(tmp_path / "journal"), FaultPlan(seed=0).injector()
        )
        store.create_session(simple_meta())
        for i in range(3):
            assert store.append_trial("s1", record(i, report_id=f"r-{i}")).trial_id == i
        assert store.append_trial("s1", record(0, report_id="r-0")).duplicate
        assert len(store.load_trials("s1")) == 3
        assert store.list_sessions() == ["s1"]
        store.close()
