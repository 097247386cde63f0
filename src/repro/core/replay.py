"""Deterministic replay of journaled tuning sessions (``repro replay``).

A session journal plus its :class:`~repro.core.journal.SessionMeta` is a
complete record of a tuning campaign: the serialised space, the optimizer
spec (name, seed, options), and — since trial records carry a
``provenance`` block — the exact coordinates of every suggest call
(``{call, n, observed, i}``), the optimizer state digest after every
observe, and the epoch (process incarnation) each trial belonged to.

:func:`replay_session` re-executes the campaign from nothing but the
store and verifies it bit-exactly against the journal:

* the space is rebuilt from the serialised dict and its version hash
  checked against every record;
* per epoch, a **fresh** optimizer comes from
  :func:`~repro.core.manager.rebuild_optimizer` — the function
  :meth:`SessionManager.resume` itself calls, so the epoch's seed and the
  exact re-observe of the journal prefix cannot differ from the original;
* suggest calls are re-executed **at the recorded history positions** —
  call ``k`` with batch width ``n`` runs exactly when the optimizer has
  observed ``observed`` trials, reproducing the original RNG stream even
  when asks and tells interleaved — and each journaled configuration is
  compared against position ``i`` of its re-executed batch, then observed
  as the answer to that suggestion's number, as the live tell was;
* failed trials re-run crash-score imputation
  (:meth:`Optimizer.observe_failure`) and the re-imputed metrics are
  compared against the journaled ones;
* after every observe the replayed :meth:`Optimizer.state_digest_parts`
  is compared against the journaled digest.

The first mismatch stops the replay: a :class:`ReplayDivergence` names
the trial, the kind of mismatch, the recorded and replayed values, and
the per-component digest delta, and is emitted into the trace as a
``replay.divergence`` event. Records without provenance (journals
written before provenance capture) are replayed observe-only and counted
as unverified rather than failing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import groupby
from typing import Any, Mapping

from ..space.serialize import space_to_dict, space_version_hash
from ..telemetry.spans import emit_event, span
from ..telemetry.tracing import SessionTrace
from .codec import config_from_values, json_safe
from .evaluation import EvaluationResult, observe_evaluation
from .journal import SessionMeta, TrialStore
from .manager import SessionManager, rebuild_optimizer, record_epoch
from .optimizer import Optimizer, TrialStatus

__all__ = ["ReplayDivergence", "ReplayReport", "replay_session"]


@dataclass
class ReplayDivergence:
    """The first point where a replay stopped matching the journal.

    ``kind`` is one of ``config`` (re-executed suggest produced a
    different configuration), ``metrics`` (crash re-imputation produced
    different values), ``digest`` (optimizer state digest mismatch after
    an identical observe — e.g. a corrupted journal score), ``space``
    (space version hash mismatch), or ``schedule`` (the journal's ask
    coordinates are internally inconsistent).
    """

    trial_id: int
    kind: str
    recorded: Any
    replayed: Any
    digest_delta: dict[str, dict[str, str]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    def format(self) -> str:
        lines = [f"first divergence at trial {self.trial_id} ({self.kind}):"]
        if self.digest_delta:
            for part in sorted(self.digest_delta):
                delta = self.digest_delta[part]
                lines.append(
                    f"  digest[{part}]: recorded {delta['recorded']} != replayed {delta['replayed']}"
                )
        else:
            lines.append(f"  recorded: {self.recorded}")
            lines.append(f"  replayed: {self.replayed}")
        return "\n".join(lines)


@dataclass
class ReplayReport:
    """Outcome of one :func:`replay_session` run."""

    session_id: str
    optimizer: str
    n_records: int
    n_epochs: int = 0
    n_suggest_calls: int = 0
    n_verified: int = 0          # configs matched against re-executed suggests
    n_unverified: int = 0        # records replayed without config verification
    n_failures_verified: int = 0  # crash imputations re-run and matched
    divergence: ReplayDivergence | None = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def to_dict(self) -> dict[str, Any]:
        head = {"session_id": self.session_id, "optimizer": self.optimizer, "ok": self.ok}
        return {**head, **asdict(self)}  # the divergence as its own to_dict()

    def format(self) -> str:
        head = (
            f"replay of session {self.session_id!r} ({self.optimizer}): "
            f"{'OK' if self.ok else 'DIVERGED'}\n"
            f"  {self.n_records} trials over {self.n_epochs} epoch(s), "
            f"{self.n_suggest_calls} suggest calls re-executed\n"
            f"  {self.n_verified} configurations verified, "
            f"{self.n_failures_verified} crash imputations verified, "
            f"{self.n_unverified} unverified"
        )
        if self.divergence is None:
            return head
        return head + "\n" + self.divergence.format()


def _record_ask(record: Mapping[str, Any]) -> Mapping[str, Any] | None:
    return (record.get("provenance") or {}).get("ask")


class _EpochReplayer:
    """Replays one process incarnation's slice of the journal.

    Holds the fresh optimizer for the epoch plus the suggest-call
    schedule reconstructed from the slice's ask coordinates. The schedule
    is *verifiable* only when the referenced call numbers are contiguous
    from zero — a gap means an ask of unknown width was never told (its
    RNG draws are unrecoverable), so config and RNG verification degrade
    gracefully to history-digest verification for the whole epoch. So
    does a resumed epoch journaled under provenance version 1, which was
    re-seeded with the session seed itself — a derivation that is gone.
    """

    def __init__(self, optimizer: Optimizer, records: list[Mapping[str, Any]], max_trials: int) -> None:
        self.optimizer = optimizer
        self.max_trials = max_trials
        calls: dict[int, tuple[int, int]] = {}  # call -> (n, observed)
        for record in records:
            ask = _record_ask(record)
            if ask is not None:
                calls[int(ask["call"])] = (int(ask["n"]), int(ask["observed"]))
        self.schedule = sorted(calls.items())
        first = records[0].get("provenance") or {}
        legacy_seed = record_epoch(records[0]) >= 1 and int(first.get("version", 1)) < 2
        self.verifiable = not legacy_seed and (
            [call for call, _ in self.schedule] == list(range(len(self.schedule)))
        )
        self._cursor = 0
        self._suggested: dict[int, list[tuple[Any, int]]] = {}  # call -> [(configuration, number)]
        self.n_suggest_calls = 0

    def run_due_suggests(self) -> str | None:
        """Execute every scheduled suggest call due at the current history
        position; returns an error description on an impossible schedule."""
        if not self.verifiable:
            return None
        observed_now = len(self.optimizer.history)
        while self._cursor < len(self.schedule):
            call, (n, observed) = self.schedule[self._cursor]
            if observed > observed_now:
                break
            if observed < observed_now:
                return (
                    f"suggest call {call} recorded at history position {observed}, "
                    f"but replay already observed {observed_now} trials"
                )
            first = self.optimizer.n_suggested
            self._suggested[call] = [(config, first + i) for i, config in enumerate(self.optimizer.suggest(n))]
            self.optimizer.evict(self.max_trials - observed)  # as the live session did after this call
            self.n_suggest_calls += 1
            self._cursor += 1
        return None

    def replayed_config(self, ask: Mapping[str, Any]) -> tuple[Any, int] | None:  # (configuration, number)
        batch = self._suggested.get(int(ask["call"]), [])
        i = int(ask["i"])
        return batch[i] if 0 <= i < len(batch) else None


def replay_session(
    store: TrialStore,
    session_id: str,
    trace: SessionTrace | None = None,
) -> ReplayReport:
    """Re-execute a journaled session and verify it against the journal.

    Never raises on divergence — inspect ``report.ok`` /
    ``report.divergence``. Raises :class:`StorageError` for an unknown
    session and :class:`ReproError` for a journal that cannot be decoded
    at all. Pass ``trace`` to collect the ``session.replay`` span and any
    ``replay.divergence`` event; by default a private trace is used so
    the event is always recorded.
    """
    meta = SessionManager(store).meta(session_id)
    optimizer_name = meta.optimizer.get("name", "random")
    records = store.load_trials(session_id)

    report = ReplayReport(session_id=session_id, optimizer=optimizer_name, n_records=len(records))

    trace = trace if trace is not None else SessionTrace(name="replay")
    with trace.activated():
        with span("session.replay", session_id=session_id, optimizer=optimizer_name):
            divergence = _replay(meta, records, report)
            if divergence is not None:
                report.divergence = divergence
                detail = divergence.to_dict()
                detail["divergence_kind"] = detail.pop("kind")
                emit_event(
                    "replay.divergence",
                    severity="error",
                    message=divergence.format(),
                    session_id=session_id,
                    **detail,
                )
    return report


def _replay(
    meta: SessionMeta,
    records: list[Mapping[str, Any]],
    report: ReplayReport,
) -> ReplayDivergence | None:
    """The verification loop; mutates ``report`` counters, returns the
    first divergence (or ``None`` for a bit-exact replay)."""
    done = 0  # records replayed so far: the journal prefix of the next epoch
    current_epoch: int | None = None
    for epoch, group in groupby(records, key=record_epoch):
        slice_records = list(group)
        if current_epoch is not None and epoch <= current_epoch:
            return ReplayDivergence(
                trial_id=int(slice_records[0]["trial_id"]),
                kind="schedule",
                recorded=f"epoch {epoch}",
                replayed=f"epochs must increase along the journal (was in epoch {current_epoch})",
            )
        current_epoch = epoch
        report.n_epochs += 1

        # A fresh process incarnation, exactly as SessionManager.resume
        # built it. The prefix is re-observed without verification: every
        # prefix record was verified when its own epoch was replayed.
        replayer = _EpochReplayer(rebuild_optimizer(meta, records[:done], epoch), slice_records, meta.max_trials)
        try:
            divergence = _replay_epoch(meta, slice_records, replayer, report)
        finally:
            report.n_suggest_calls += replayer.n_suggest_calls
        if divergence is not None:
            return divergence
        done += len(slice_records)
    return None


def _replay_epoch(
    meta: SessionMeta,
    slice_records: list[Mapping[str, Any]],
    replayer: _EpochReplayer,
    report: ReplayReport,
) -> ReplayDivergence | None:
    optimizer = replayer.optimizer
    space = optimizer.space
    # Both acceptable space hashes: the stored spec verbatim (what epoch 0
    # hashed) and its deserialise/serialise round-trip (what resumed
    # epochs hashed — callable members dropped at create time are absent).
    space_hashes = {
        space_version_hash(meta.space),
        space_version_hash(space_to_dict(space, strict=False)),
    }
    for record in slice_records:
        trial_id = int(record["trial_id"])
        provenance = record.get("provenance") or {}

        recorded_space = provenance.get("space")
        if recorded_space is not None and recorded_space not in space_hashes:
            return ReplayDivergence(
                trial_id=trial_id,
                kind="space",
                recorded=recorded_space,
                replayed=sorted(space_hashes),
            )

        schedule_error = replayer.run_due_suggests()
        if schedule_error is not None:
            return ReplayDivergence(
                trial_id=trial_id,
                kind="schedule",
                recorded=provenance.get("ask"),
                replayed=schedule_error,
            )

        ask = _record_ask(record)
        replayed = replayer.replayed_config(ask) if ask is not None and replayer.verifiable else None
        if replayed is not None:
            config, suggestion = replayed
            replayed_values = json_safe(config.as_dict())
            if replayed_values != record["config"]:
                return ReplayDivergence(
                    trial_id=trial_id,
                    kind="config",
                    recorded=dict(record["config"]),
                    replayed=replayed_values,
                )
            report.n_verified += 1
        else:
            # No provenance (legacy journal), a foreign tell or an unverifiable
            # schedule: rebuild the configuration from the journaled values.
            config, suggestion = config_from_values(record["config"], space), -1
            report.n_unverified += 1

        recorded_metrics = {str(k): float(v) for k, v in record.get("metrics", {}).items()}
        result = EvaluationResult(
            recorded_metrics, cost=float(record.get("cost", 1.0)), status=TrialStatus(record["status"])
        )
        # Entered as the live loops enter a trial: a failure re-runs crash-score
        # imputation from the replayed history, which must land on exactly
        # the journaled values.
        trial = observe_evaluation(
            optimizer, config, result, record.get("fidelity"), dict(record.get("context", {})), suggestion
        )
        if not trial.ok:
            if trial.metrics != recorded_metrics:
                return ReplayDivergence(
                    trial_id=trial_id,
                    kind="metrics",
                    recorded=recorded_metrics,
                    replayed=dict(trial.metrics),
                )
            report.n_failures_verified += 1

        if trial.trial_id != trial_id:
            return ReplayDivergence(
                trial_id=trial_id,
                kind="schedule",
                recorded=trial_id,
                replayed=f"replay assigned trial id {trial.trial_id}",
            )

        recorded_digest = provenance.get("digest")
        if recorded_digest:
            parts = optimizer.state_digest_parts()
            # Without a verifiable suggest schedule the RNG stream (and any
            # model state fed by it) cannot match; the history digest must.
            keys = parts.keys() & recorded_digest.keys()
            if not replayer.verifiable:
                keys = keys & {"history"}
            delta = {
                key: {"recorded": str(recorded_digest[key]), "replayed": parts[key]}
                for key in sorted(keys)
                if str(recorded_digest[key]) != parts[key]
            }
            if delta:
                return ReplayDivergence(
                    trial_id=trial_id,
                    kind="digest",
                    recorded=dict(recorded_digest),
                    replayed=dict(parts),
                    digest_delta=delta,
                )
    return None
