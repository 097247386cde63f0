"""In-memory trial store: the ``TrialStore`` contract without durability.

Useful for tests and for ephemeral service deployments where resumability
across restarts is not needed. Semantics (append order, id assignment,
report-id deduplication, errors) match the durable backends exactly, so
the contract test-suite runs against all three.
"""

from __future__ import annotations

import copy
import threading
import time
from typing import Any, Mapping

from ..journal import AppendResult, SessionMeta, StorageError, TrialStore

__all__ = ["MemoryTrialStore"]


class MemoryTrialStore(TrialStore):
    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._sessions: dict[str, SessionMeta] = {}
        self._trials: dict[str, list[dict[str, Any]]] = {}
        self._report_ids: dict[str, dict[str, int]] = {}

    def create_session(self, meta: SessionMeta) -> None:
        with self._lock:
            if meta.session_id in self._sessions:
                raise StorageError(f"session {meta.session_id!r} already exists")
            if not meta.created_at:
                meta.created_at = time.time()
            self._sessions[meta.session_id] = copy.deepcopy(meta)
            self._trials[meta.session_id] = []
            self._report_ids[meta.session_id] = {}

    def get_session(self, session_id: str) -> SessionMeta | None:
        with self._lock:
            meta = self._sessions.get(session_id)
            return copy.deepcopy(meta) if meta is not None else None

    def update_session(self, session_id: str, **fields: Any) -> None:
        with self._lock:
            self._updated(self._sessions.get(session_id), session_id, fields)

    def list_sessions(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def append_trial(self, session_id: str, record: Mapping[str, Any]) -> AppendResult:
        with self._lock:
            self._require_session(self._sessions.get(session_id), session_id)
            report_id = record.get("report_id")
            seen = self._report_ids[session_id]
            if report_id is not None and report_id in seen:
                return AppendResult(trial_id=seen[report_id], duplicate=True)
            trial_id = len(self._trials[session_id])
            payload = copy.deepcopy(dict(record))
            payload["trial_id"] = trial_id
            self._trials[session_id].append(payload)
            if report_id is not None:
                seen[report_id] = trial_id
            return AppendResult(trial_id=trial_id)

    def load_trials(self, session_id: str) -> list[dict[str, Any]]:
        with self._lock:
            self._require_session(self._sessions.get(session_id), session_id)
            return copy.deepcopy(self._trials[session_id])
