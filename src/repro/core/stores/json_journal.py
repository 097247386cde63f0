"""Append-only JSON-lines trial journal, one file pair per session.

Layout under the store root::

    <root>/<session_id>.meta.json      # SessionMeta, rewritten atomically
    <root>/<session_id>.journal.jsonl  # one trial record per line, append-only

Durability contract:

* **Metadata** writes go through write-temp + ``os.replace`` (+ fsync), so
  a crash mid-write leaves either the old or the new metadata, never a
  truncated file.
* **Trial appends** write one ``\\n``-terminated JSON line and fsync before
  acknowledging. A crash mid-append can only tear the *final* line;
  recovery (:meth:`JsonJournalStore.load_trials`) detects the torn tail
  (unterminated or undecodable last line), discards it, and truncates the
  file so the journal is clean for the next append. Records before the
  tail are untouched — acknowledged trials are never lost.
* **Idempotency**: records carrying a ``report_id`` already present in the
  journal are dropped and reported as duplicates.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Mapping

from ..journal import (
    AppendResult,
    SessionMeta,
    StorageError,
    TransientStorageError,
    TrialStore,
    check_session_id,
)

__all__ = ["JsonJournalStore"]

def _atomic_write(path: Path, text: str, fsync: bool = True) -> None:
    """Write-temp + ``os.replace`` so readers never observe a partial file."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)


class JsonJournalStore(TrialStore):
    """Durable JSON-journal store rooted at a directory.

    ``fsync=False`` trades durability-on-power-loss for speed (appends are
    still atomic against *process* crashes thanks to the torn-tail
    recovery); tests use it to keep wall clock down.
    """

    def __init__(self, root: str | Path, fsync: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = bool(fsync)
        self._lock = threading.RLock()
        # Journal state per unfinished session, lazily recovered from disk:
        # number of valid records and the set of seen report ids.
        self._counts: dict[str, int] = {}
        self._report_ids: dict[str, set[str]] = {}

    # -- paths --------------------------------------------------------------
    def _meta_path(self, session_id: str) -> Path:
        return self.root / f"{check_session_id(session_id)}.meta.json"

    def _journal_path(self, session_id: str) -> Path:
        return self.root / f"{check_session_id(session_id)}.journal.jsonl"

    # -- sessions -----------------------------------------------------------
    def create_session(self, meta: SessionMeta) -> None:
        with self._lock:
            path = self._meta_path(meta.session_id)
            if path.exists():
                raise StorageError(f"session {meta.session_id!r} already exists")
            if not meta.created_at:
                meta.created_at = time.time()
            _atomic_write(path, json.dumps(meta.to_dict(), separators=(",", ":")), self.fsync)
            self._counts[meta.session_id] = 0
            self._report_ids[meta.session_id] = set()

    def get_session(self, session_id: str) -> SessionMeta | None:
        path = self._meta_path(session_id)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as err:
            raise StorageError(f"cannot read session meta {path}: {err}") from err
        try:
            return SessionMeta.from_dict(json.loads(text))
        except json.JSONDecodeError as err:
            raise StorageError(f"corrupt session meta {path}: {err}") from err

    def update_session(self, session_id: str, **fields: Any) -> None:
        with self._lock:
            meta = self._updated(self.get_session(session_id), session_id, fields)
            _atomic_write(self._meta_path(session_id), json.dumps(meta.to_dict(), separators=(",", ":")), self.fsync)
            if meta.status == "completed":  # a later touch recovers it from disk
                self._counts.pop(session_id, None)
                self._report_ids.pop(session_id, None)

    def list_sessions(self) -> list[str]:
        return sorted(p.name[: -len(".meta.json")] for p in self.root.glob("*.meta.json"))

    # -- trials -------------------------------------------------------------
    def _recover(self, session_id: str) -> None:
        """Load (and if needed repair) a session's journal state from disk."""
        if session_id in self._counts:
            return
        self._require_session(self.get_session(session_id), session_id)
        records = self._read_journal(session_id, repair=True)
        self._counts[session_id] = len(records)
        self._report_ids[session_id] = {
            r["report_id"] for r in records if r.get("report_id") is not None
        }

    def append_trial(self, session_id: str, record: Mapping[str, Any]) -> AppendResult:
        with self._lock:
            self._recover(session_id)
            report_id = record.get("report_id")
            if report_id is not None and report_id in self._report_ids[session_id]:
                trial_id = self._find_trial_id(session_id, report_id)
                return AppendResult(trial_id=trial_id, duplicate=True)
            trial_id = self._counts[session_id]
            payload = dict(record)
            payload["trial_id"] = trial_id
            line = json.dumps(payload, separators=(",", ":"), default=str) + "\n"
            self._append_line(self._journal_path(session_id), line.encode("utf-8"))
            self._counts[session_id] = trial_id + 1
            if report_id is not None:
                self._report_ids[session_id].add(report_id)
            return AppendResult(trial_id=trial_id)

    def _append_line(self, path: Path, data: bytes) -> None:
        """Append one record durably, or leave the journal untouched.

        Disk-full / IO / fsync failures surface as
        :class:`TransientStorageError` (the contract's retryable class),
        and the journal is rolled back to its pre-append length first so a
        half-written or written-but-unacknowledged line can never turn a
        retry into a duplicate record.
        """
        try:
            fh = open(path, "ab")
        except OSError as err:
            raise TransientStorageError(f"cannot open journal {path}: {err}") from err
        try:
            offset = fh.tell()
            try:
                fh.write(data)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            except OSError as err:
                try:
                    fh.truncate(offset)
                except OSError:  # pragma: no cover - rollback is best-effort
                    pass  # the torn tail is unterminated; recovery discards it
                raise TransientStorageError(
                    f"append to journal {path} failed: {err}"
                ) from err
        finally:
            fh.close()

    def _find_trial_id(self, session_id: str, report_id: str) -> int:
        for record in self._read_journal(session_id, repair=False):
            if record.get("report_id") == report_id:
                return int(record["trial_id"])
        raise StorageError(f"report {report_id!r} tracked but not found in journal")

    def _read_journal(self, session_id: str, repair: bool) -> list[dict[str, Any]]:
        path = self._journal_path(session_id)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return []
        except OSError as err:
            raise StorageError(f"cannot read journal {path}: {err}") from err
        records: list[dict[str, Any]] = []
        valid_bytes = 0
        lines = raw.split(b"\n")
        for i, line in enumerate(lines):
            if not line:
                continue
            torn_tail = i == len(lines) - 1  # no trailing newline -> incomplete append
            if not torn_tail:
                try:
                    records.append(json.loads(line.decode("utf-8")))
                    valid_bytes += len(line) + 1
                    continue
                except (json.JSONDecodeError, UnicodeDecodeError) as err:
                    # An interior line can only be mangled by external
                    # corruption, not by our append protocol: refuse to
                    # guess rather than silently drop history.
                    raise StorageError(
                        f"corrupt journal {path} at line {i + 1}: {err}"
                    ) from err
            # Torn tail: a crash mid-append. Discard it (never acknowledged).
            if repair:
                with open(path, "r+b") as fh:
                    fh.truncate(valid_bytes)
                    if self.fsync:
                        os.fsync(fh.fileno())
        return records

    def load_trials(self, session_id: str) -> list[dict[str, Any]]:
        with self._lock:
            self._require_session(self.get_session(session_id), session_id)
            return self._read_journal(session_id, repair=True)

    def close(self) -> None:
        with self._lock:
            self._counts.clear()
            self._report_ids.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JsonJournalStore(root={str(self.root)!r})"
