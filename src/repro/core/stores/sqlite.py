"""SQLite trial store: one database file, WAL mode, many sessions.

The service default. Write-ahead logging keeps readers unblocked by the
single writer and makes commits atomic against process kills; a unique
index on ``(session_id, report_id)`` enforces tell idempotency inside the
database itself, so deduplication survives restarts and concurrent
writers without any in-memory bookkeeping.

``synchronous=NORMAL`` is used with WAL: commits are durable against
process crashes (the acceptance scenario — SIGKILL mid-campaign) and the
database can never be corrupted by one; an OS/power failure may lose the
very last commits but never acknowledged-then-rolled-back ones.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Mapping

from ..journal import AppendResult, SessionMeta, StorageError, TransientStorageError, TrialStore

__all__ = ["SqliteTrialStore"]

#: ``sqlite3.OperationalError`` message fragments that mark a *retryable*
#: failure: writer contention or a momentarily full disk. Everything else
#: (malformed database, missing table) is permanent.
_TRANSIENT_MARKERS = ("locked", "busy", "disk is full", "disk i/o error")


def _storage_error(context: str, err: sqlite3.Error) -> StorageError:
    """Wrap a sqlite error, classifying contention/IO as transient."""
    if isinstance(err, sqlite3.OperationalError):
        message = str(err).lower()
        if any(marker in message for marker in _TRANSIENT_MARKERS):
            return TransientStorageError(f"{context}: {err}")
    return StorageError(f"{context}: {err}")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS sessions (
    session_id TEXT PRIMARY KEY,
    meta       TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS trials (
    session_id TEXT NOT NULL REFERENCES sessions(session_id),
    trial_id   INTEGER NOT NULL,
    report_id  TEXT,
    record     TEXT NOT NULL,
    PRIMARY KEY (session_id, trial_id)
);
CREATE UNIQUE INDEX IF NOT EXISTS trials_report
    ON trials(session_id, report_id) WHERE report_id IS NOT NULL;
"""


class SqliteTrialStore(TrialStore):
    """Durable trial store backed by a single SQLite file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        try:
            self._db = sqlite3.connect(str(self.path), check_same_thread=False)
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            # Ride out short writer contention inside SQLite before
            # surfacing a TransientStorageError for the caller to retry.
            self._db.execute("PRAGMA busy_timeout=5000")
            self._db.executescript(_SCHEMA)
            self._db.commit()
        except sqlite3.Error as err:
            raise StorageError(f"cannot open SQLite store {self.path}: {err}") from err

    # -- sessions -----------------------------------------------------------
    def create_session(self, meta: SessionMeta) -> None:
        if not meta.created_at:
            meta.created_at = time.time()
        with self._lock:
            try:
                self._db.execute(
                    "INSERT INTO sessions (session_id, meta, created_at) VALUES (?, ?, ?)",
                    (meta.session_id, json.dumps(meta.to_dict()), meta.created_at),
                )
                self._db.commit()
            except sqlite3.IntegrityError:
                self._db.rollback()
                raise StorageError(f"session {meta.session_id!r} already exists") from None
            except sqlite3.Error as err:
                self._db.rollback()
                raise _storage_error("cannot create session", err) from err

    def get_session(self, session_id: str) -> SessionMeta | None:
        with self._lock:
            row = self._db.execute(
                "SELECT meta FROM sessions WHERE session_id = ?", (session_id,)
            ).fetchone()
        if row is None:
            return None
        try:
            return SessionMeta.from_dict(json.loads(row[0]))
        except json.JSONDecodeError as err:
            raise StorageError(f"corrupt session meta for {session_id!r}: {err}") from err

    def update_session(self, session_id: str, **fields: Any) -> None:
        with self._lock:
            meta = self._updated(self.get_session(session_id), session_id, fields)
            self._db.execute(
                "UPDATE sessions SET meta = ? WHERE session_id = ?",
                (json.dumps(meta.to_dict()), session_id),
            )
            self._db.commit()

    def list_sessions(self) -> list[str]:
        with self._lock:
            rows = self._db.execute("SELECT session_id FROM sessions ORDER BY session_id").fetchall()
        return [r[0] for r in rows]

    # -- trials -------------------------------------------------------------
    def append_trial(self, session_id: str, record: Mapping[str, Any]) -> AppendResult:
        report_id = record.get("report_id")
        with self._lock:
            self._require_session(self.get_session(session_id), session_id)
            try:
                self._db.execute("BEGIN IMMEDIATE")
                if report_id is not None:
                    row = self._db.execute(
                        "SELECT trial_id FROM trials WHERE session_id = ? AND report_id = ?",
                        (session_id, report_id),
                    ).fetchone()
                    if row is not None:
                        self._db.rollback()
                        return AppendResult(trial_id=int(row[0]), duplicate=True)
                row = self._db.execute(
                    "SELECT COALESCE(MAX(trial_id) + 1, 0) FROM trials WHERE session_id = ?",
                    (session_id,),
                ).fetchone()
                trial_id = int(row[0])
                payload = dict(record)
                payload["trial_id"] = trial_id
                self._db.execute(
                    "INSERT INTO trials (session_id, trial_id, report_id, record) VALUES (?, ?, ?, ?)",
                    (session_id, trial_id, report_id, json.dumps(payload, default=str)),
                )
                self._db.commit()
                return AppendResult(trial_id=trial_id)
            except sqlite3.Error as err:
                try:
                    self._db.rollback()
                except sqlite3.Error:  # pragma: no cover - rollback is best-effort
                    pass
                raise _storage_error(f"cannot append trial to {session_id!r}", err) from err

    def load_trials(self, session_id: str) -> list[dict[str, Any]]:
        with self._lock:
            self._require_session(self.get_session(session_id), session_id)
            rows = self._db.execute(
                "SELECT record FROM trials WHERE session_id = ? ORDER BY trial_id",
                (session_id,),
            ).fetchall()
        try:
            return [json.loads(r[0]) for r in rows]
        except json.JSONDecodeError as err:
            raise StorageError(f"corrupt trial record in {session_id!r}: {err}") from err

    def close(self) -> None:
        with self._lock:
            try:
                self._db.close()
            except sqlite3.Error:  # pragma: no cover - defensive
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SqliteTrialStore(path={str(self.path)!r})"
