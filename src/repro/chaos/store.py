"""``FaultyStore``: deterministic storage faults behind the TrialStore contract.

Wraps any :class:`~repro.core.journal.TrialStore` and consults a
:class:`~repro.chaos.plan.FaultInjector` at three sites:

``store.append``
    * ``error`` — the append fails *before* any effect
      (:class:`~repro.core.journal.TransientStorageError`); nothing is
      durable, a retry with the same record is a fresh append.
    * ``torn`` — a partial, unterminated record is written to the
      underlying JSON journal (crash mid-append) and the append fails;
      the backend's torn-tail recovery must repair it on the next read.
      Backends without a raw journal file degrade to ``error``.
    * ``ack_lost`` — the append *succeeds* durably, then the
      acknowledgement is dropped (fsync-failure model). The caller must
      retry; only ``report_id``-bearing records survive this exactly-once,
      which is precisely what the chaos harness is proving.

``store.read``
    * ``error`` — ``load_trials`` fails transiently.

``store.meta``
    * ``error`` — ``get_session`` fails transiently (resume-path faults).

Faults are keyed by session id, so every session's fault sequence is a
pure function of the plan seed regardless of how concurrent sessions
interleave.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.journal import AppendResult, SessionMeta, TransientStorageError, TrialStore
from .plan import FaultDecision, FaultInjector

__all__ = ["FaultyStore"]


class FaultyStore(TrialStore):
    """A fault-injecting decorator satisfying the ``TrialStore`` contract.

    With an empty plan (or rules at rate 0) it is a transparent proxy —
    the store contract suite runs against it unchanged.
    """

    def __init__(self, inner: TrialStore, injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    # -- fault application ---------------------------------------------------
    def _raise(self, decision: FaultDecision) -> None:
        raise TransientStorageError(decision.message)

    def _tear_journal(self, session_id: str, decision: FaultDecision) -> None:
        """Write an unterminated partial line into a JSON journal, if any.

        Simulates a crash mid-append: the torn tail must be discarded by
        the backend's recovery on the next load. Backends without a
        per-session journal file just fail cleanly.
        """
        journal_path = getattr(self.inner, "_journal_path", None)
        if journal_path is not None:
            try:
                with open(journal_path(session_id), "ab") as fh:
                    fh.write(b'{"torn-by-chaos": ')
            except OSError:
                pass
        self._raise(decision)

    # -- sessions -----------------------------------------------------------
    def create_session(self, meta: SessionMeta) -> None:
        self.inner.create_session(meta)

    def get_session(self, session_id: str) -> SessionMeta | None:
        decision = self.injector.decide("store.meta", session_id)
        if decision is not None and decision.kind in ("error", "ack_lost", "torn"):
            self._raise(decision)
        return self.inner.get_session(session_id)

    def update_session(self, session_id: str, **fields: Any) -> None:
        self.inner.update_session(session_id, **fields)

    def list_sessions(self) -> list[str]:
        return self.inner.list_sessions()

    # -- trials -------------------------------------------------------------
    def append_trial(self, session_id: str, record: Mapping[str, Any]) -> AppendResult:
        decision = self.injector.decide("store.append", session_id)
        if decision is None:
            return self.inner.append_trial(session_id, record)
        if decision.kind == "torn":
            self._tear_journal(session_id, decision)
        if decision.kind == "ack_lost":
            self.inner.append_trial(session_id, record)
            self._raise(decision)
        self._raise(decision)
        raise AssertionError("unreachable")  # pragma: no cover

    def load_trials(self, session_id: str) -> list[dict[str, Any]]:
        decision = self.injector.decide("store.read", session_id)
        if decision is not None:
            self._raise(decision)
        return self.inner.load_trials(session_id)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultyStore({self.inner!r}, {self.injector!r})"
