"""Durable session state: the ``TrialStore`` interface and trial journal.

The paper frames autotuning as a *service*: campaigns outlive processes,
so trials must be durable the moment they are acknowledged. This module
defines the storage contract every backend implements and the metadata
needed to resurrect a session from storage alone.

Design
------
* **Append-only.** A session's history is an ordered journal of trial
  records (the canonical :func:`repro.core.codec.encode_trial` shape).
  Stores never rewrite history — crash recovery is "read the prefix that
  made it to disk".
* **Atomic + idempotent appends.** ``append_trial`` must be atomic (a
  crash mid-write never corrupts previously-acknowledged records) and
  deduplicating: a record whose ``report_id`` was already journaled is
  dropped and reported as a duplicate, which is what makes client retries
  over an unreliable transport safe.
* **Self-describing sessions.** :class:`SessionMeta` persists everything
  a :class:`~repro.core.manager.SessionManager` needs to rebuild the
  session — serialized space, optimizer spec, objectives, budgets — so
  ``resume(session_id)`` works in a process that never saw the session.

Backends live in :mod:`repro.core.stores`: a JSON-lines journal
(:class:`~repro.core.stores.JsonJournalStore`), SQLite in WAL mode
(:class:`~repro.core.stores.SqliteTrialStore`), and an in-memory store
for tests. The journal is the only on-disk trial format.
"""

from __future__ import annotations

import re
import uuid
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from ..exceptions import ReproError

__all__ = [
    "StorageError",
    "TransientStorageError",
    "UnknownSessionError",
    "SessionMeta",
    "AppendResult",
    "TrialStore",
    "new_session_id",
    "SESSION_ID_PATTERN",
    "check_session_id",
]

META_FORMAT_VERSION = 1


class StorageError(ReproError):
    """A trial store operation failed or the stored state is invalid."""


class TransientStorageError(StorageError):
    """A store operation failed in a way that a retry may fix.

    Raised for contended or momentarily-unavailable storage — SQLite
    ``database is locked``/``busy``, a failed fsync, a full disk, an
    injected chaos fault. The distinction matters end to end: the service
    maps transient errors to HTTP 503 with a ``Retry-After`` hint (clients
    back off and retry) while permanent :class:`StorageError`\\ s map to
    409 (retrying cannot help), and :class:`~repro.core.session.TuningSession`
    spills trials into a bounded in-memory buffer on transient append
    failures instead of failing the tell.

    The contract for raisers: after a :class:`TransientStorageError` from
    ``append_trial`` the journal must be exactly as if the append was never
    attempted (no phantom or torn records surfacing on the next load).
    """


class UnknownSessionError(StorageError):
    """The store holds no session of that id (the service answers 404)."""


#: The one session-id grammar: what a store holds is what a URL can address
#: (and what is safe as a file name — no separators, no leading dot).
SESSION_ID_PATTERN = r"[A-Za-z0-9][A-Za-z0-9._-]{0,127}"


def check_session_id(session_id: str) -> str:
    """``session_id`` if it fits :data:`SESSION_ID_PATTERN`; the caller's mistake otherwise."""
    if not re.fullmatch(SESSION_ID_PATTERN, session_id):
        raise ReproError(
            f"invalid session id {session_id!r}: use 1-128 chars of [A-Za-z0-9._-], "
            "not starting with '.', '_' or '-'"
        )
    return session_id


def new_session_id() -> str:
    """A fresh, URL-safe session identifier."""
    return uuid.uuid4().hex


@dataclass
class SessionMeta:
    """Everything needed to rebuild a tuning session from storage.

    ``space`` is the :func:`repro.space.serialize.space_to_dict` form;
    ``optimizer`` is ``{"name": ..., "seed": ..., "options": {...}}``
    resolved against the optimizer registry at resume time. ``extra`` is
    free-form (the service records its target-system spec there).
    """

    session_id: str
    space: dict[str, Any]
    optimizer: dict[str, Any]
    objectives: list[dict[str, Any]]
    max_trials: int
    max_cost: float | None = None
    batch_size: int = 1
    status: str = "active"
    created_at: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """The stored form. Shallow — it shares the space dict and the other
        containers with ``self`` — because every caller serialises it at
        once; ``dataclasses.asdict`` would deep-copy the space each time."""
        return {"version": META_FORMAT_VERSION, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionMeta":
        version = data.get("version", META_FORMAT_VERSION)
        if version != META_FORMAT_VERSION:
            raise StorageError(f"unsupported session-meta version {version!r}")
        try:
            return cls(
                session_id=str(data["session_id"]),
                space=dict(data["space"]),
                optimizer=dict(data["optimizer"]),
                objectives=[dict(o) for o in data["objectives"]],
                max_trials=int(data["max_trials"]),
                max_cost=None if data.get("max_cost") is None else float(data["max_cost"]),
                batch_size=int(data.get("batch_size", 1)),
                status=str(data.get("status", "active")),
                created_at=float(data.get("created_at", 0.0)),
                extra=dict(data.get("extra", {})),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise StorageError(f"malformed session meta: {err}") from err


@dataclass(frozen=True)
class AppendResult:
    """Outcome of one ``append_trial``: the durable trial id, and whether
    the record was a duplicate of an already-journaled report."""

    trial_id: int
    duplicate: bool = False


class TrialStore(ABC):
    """Abstract durable store of tuning sessions and their trial journals.

    The contract all backends must honour:

    * ``append_trial`` is **atomic** — after a crash at any point, loading
      the session yields exactly the records whose appends were
      acknowledged (a torn trailing write is discarded, never surfaced as
      corruption) — and **idempotent** on ``record["report_id"]``.
    * ``load_trials`` returns records in append order with contiguous
      ``trial_id`` 0..n-1.
    * All methods are thread-safe.
    """

    # -- sessions -----------------------------------------------------------
    @abstractmethod
    def create_session(self, meta: SessionMeta) -> None:
        """Persist a new session. Raises :class:`StorageError` if the id exists."""

    @abstractmethod
    def get_session(self, session_id: str) -> SessionMeta | None:
        """Load a session's metadata, or ``None`` if unknown."""

    @abstractmethod
    def update_session(self, session_id: str, **fields: Any) -> None:
        """Update mutable metadata fields (``status``, ``extra``)."""

    @abstractmethod
    def list_sessions(self) -> list[str]:
        """All known session ids (sorted)."""

    # -- trials -------------------------------------------------------------
    @abstractmethod
    def append_trial(self, session_id: str, record: Mapping[str, Any]) -> AppendResult:
        """Durably append one trial record; returns its id and dup flag.

        The store assigns the journal position as the authoritative
        ``trial_id`` (any id in ``record`` is overwritten), so callers
        cannot create gaps or collisions.
        """

    @abstractmethod
    def load_trials(self, session_id: str) -> list[dict[str, Any]]:
        """All journaled records of a session, in append order."""

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:  # pragma: no cover - trivial default
        """Release resources; further use is undefined."""

    def __enter__(self) -> "TrialStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- shared helpers -----------------------------------------------------
    @staticmethod
    def _require_session(meta: SessionMeta | None, session_id: str) -> SessionMeta:
        if meta is None:
            raise UnknownSessionError(f"unknown session {session_id!r}")
        return meta

    @classmethod
    def _updated(cls, meta: SessionMeta | None, session_id: str, fields: Mapping[str, Any]) -> SessionMeta:
        """``meta`` with ``fields`` set — what every ``update_session`` does before its own write."""
        meta = cls._require_session(meta, session_id)
        for key, value in fields.items():
            if not hasattr(meta, key):
                raise StorageError(f"unknown session-meta field {key!r}")
            setattr(meta, key, value)
        return meta
