"""Trial-store backends implementing :class:`repro.core.journal.TrialStore`.

* :class:`JsonJournalStore` — one append-only JSON-lines journal per
  session, human-inspectable, atomic via fsynced appends + torn-tail
  recovery, metadata via write-temp + ``os.replace``.
* :class:`SqliteTrialStore` — single-file SQLite database in WAL mode;
  the right default for a long-lived service hosting many sessions.
* :class:`MemoryTrialStore` — non-durable, for tests and ephemeral use.

:func:`open_store` picks a backend from a path: ``*.sqlite``/``*.db`` (or
an existing SQLite file) opens SQLite, anything else a journal directory.
It resolves the backend class through this package's table, so a process
that journals to JSON never imports ``sqlite3``.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from ..._lazy import lazy_exports
from ...exceptions import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..journal import TrialStore

# Public name -> defining submodule, imported on first use (see repro._lazy).
_EXPORTS = {
    "JsonJournalStore": ".json_journal",
    "MemoryTrialStore": ".memory",
    "SqliteTrialStore": ".sqlite",
}

__all__ = [*_EXPORTS, "open_store"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)


def open_store(path: str | Path, backend: str | None = None) -> TrialStore:
    """Open (creating if needed) a durable trial store at ``path``.

    ``backend`` forces ``"sqlite"`` or ``"json"``; by default the choice
    follows the path: SQLite for ``*.sqlite``/``*.sqlite3``/``*.db`` or an
    existing regular file, JSON journal directory otherwise.
    """
    path = Path(path)
    if backend is None:
        if path.suffix in (".sqlite", ".sqlite3", ".db") or path.is_file():
            backend = "sqlite"
        else:
            backend = "json"
    if backend == "sqlite":
        return __getattr__("SqliteTrialStore")(path)
    if backend == "json":
        return __getattr__("JsonJournalStore")(path)
    raise ReproError(f"unknown store backend {backend!r}; choose 'sqlite' or 'json'")
