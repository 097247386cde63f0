"""One lifecycle API for tuning sessions: create, resume, list, complete.

Library code, the CLI, and the HTTP service all construct sessions through
:class:`SessionManager`, so the three surfaces share identical semantics:

* ``create(...)`` serialises the space and optimizer spec into a
  :class:`~repro.core.journal.SessionMeta`, persists it to the attached
  :class:`~repro.core.journal.TrialStore`, and returns a
  :class:`~repro.core.session.TuningSession` wired to journal every trial.
* ``resume(session_id)`` rebuilds the space, optimizer, and full history
  from storage alone — any process holding the store can continue any
  session, which is what makes the service crash-tolerant.

Both, and every epoch of ``repro replay``, get their optimizer from
:func:`rebuild_optimizer`, so they cannot disagree on how an epoch is
seeded or how history is re-observed.

The optimizer registry maps wire-friendly names (``"bo"``, ``"smac"``,
``"random"``, …) to constructors; it is the same table the CLI uses, so a
session created from the command line can be resumed over HTTP and vice
versa.
"""

from __future__ import annotations

import time
import warnings
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from .. import optimizers
from ..exceptions import ReproError
from ..space import ConfigurationSpace
from ..space.serialize import space_from_dict, space_to_dict
from ..staticcheck import SpaceLintError, lint_space
from .codec import decode_trial
from .journal import SessionMeta, StorageError, TrialStore, check_session_id, new_session_id
from .optimizer import Objective, Optimizer, TrialStatus, best_at_top_fidelity
from .evaluation import Evaluator
from .session import TuningSession, budget_spent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..execution import TrialExecutor
    from .callbacks import Callback
    from .replay import ReplayReport

__all__ = ["SessionManager", "make_optimizer", "optimizer_names"]


# Wire name -> class exported by repro.optimizers. Looked up by name so that
# listing the names imports no optimizer and ``create`` imports only its own.
_REGISTRY = {
    "random": "RandomSearchOptimizer",
    "grid": "GridSearchOptimizer",
    "bo": "BayesianOptimizer",
    "smac": "SMACOptimizer",
    "anneal": "SimulatedAnnealingOptimizer",
    "cmaes": "CMAESOptimizer",
    "pso": "ParticleSwarmOptimizer",
    "bestconfig": "BestConfigOptimizer",
    "hyperband": "HyperbandOptimizer",
}


def optimizer_names() -> list[str]:
    """Registered optimizer names usable in session specs."""
    return sorted(_REGISTRY)


def make_optimizer(
    name: str,
    space: ConfigurationSpace,
    objectives: Sequence[Objective] | Objective,
    seed: int | None = None,
    options: Mapping[str, Any] | None = None,
) -> Optimizer:
    """Instantiate a registered optimizer from its wire-level spec."""
    if name not in _REGISTRY:
        raise ReproError(f"unknown optimizer {name!r}; choose from {optimizer_names()}")
    cls = getattr(optimizers, _REGISTRY[name])
    try:
        return cls(space, objectives=list(objectives) if isinstance(objectives, Sequence) else objectives, seed=seed, **dict(options or {}))
    except (TypeError, ValueError) as err:
        raise ReproError(f"bad options for optimizer {name!r}: {err}") from err


def _normalise_objectives(
    objectives: Sequence[Objective] | Objective | Sequence[Mapping[str, Any]] | Mapping[str, Any] | None,
) -> list[Objective]:
    if objectives is None:
        return [Objective("score", minimize=True)]
    if isinstance(objectives, (Objective, Mapping)):
        objectives = [objectives]
    out = []
    for obj in objectives:
        if isinstance(obj, Objective):
            out.append(obj)
        else:
            out.append(Objective(str(obj["name"]), minimize=bool(obj.get("minimize", True))))
    return out


def record_epoch(record: Mapping[str, Any]) -> int:
    """The process incarnation that journaled ``record`` (0 without provenance)."""
    return int((record.get("provenance") or {}).get("epoch", 0))


def _epoch_seed(seed: int | None, epoch: int) -> int | None:
    """The optimizer seed of incarnation ``epoch``: the session's own for
    epoch 0, a stream of its own for every resume — re-seeding with the
    session seed would re-suggest what the dead process already evaluated."""
    if seed is None or epoch == 0:
        return seed
    return int(np.random.SeedSequence((seed, epoch)).generate_state(1)[0])


def rebuild_optimizer(
    meta: SessionMeta,
    records: Sequence[Mapping[str, Any]],
    epoch: int,
    space: ConfigurationSpace | None = None,
) -> Optimizer:
    """The optimizer of incarnation ``epoch`` of a stored session.

    Built from the stored spec, seeded for ``epoch``, and warm-started on
    ``records`` (the journal prefix) with their recorded metrics — failed
    trials keep their stored imputations: the re-observe is exact. ``space``
    is the live space of a session being created, callable members included.
    """
    if space is None:
        space = space_from_dict(meta.space)
    spec = meta.optimizer
    optimizer = make_optimizer(
        spec.get("name", "random"),
        space,
        _normalise_objectives(meta.objectives),
        seed=_epoch_seed(spec.get("seed"), epoch),
        options=spec.get("options"),
    )
    optimizer.warm_start(decode_trial(record, space) for record in records)
    for position, record in enumerate(records):
        if int(record["trial_id"]) != position:
            raise StorageError(
                f"journal of session {meta.session_id!r} is not contiguous: record "
                f"{record['trial_id']} at position {position}"
            )
    return optimizer


class SessionManager:
    """Factory and registry of durable tuning sessions over one store.

    Parameters
    ----------
    store:
        The durable backend; defaults to a fresh non-durable
        :class:`~repro.core.stores.MemoryTrialStore`.
    """

    def __init__(self, store: TrialStore | None = None) -> None:
        if store is None:
            from .stores import MemoryTrialStore

            store = MemoryTrialStore()
        self.store = store

    # -- lifecycle ----------------------------------------------------------
    def create(
        self,
        space: ConfigurationSpace,
        optimizer: str = "random",
        objectives: Sequence[Objective] | Objective | None = None,
        max_trials: int = 100,
        max_cost: float | None = None,
        batch_size: int = 1,
        seed: int | None = None,
        optimizer_options: Mapping[str, Any] | None = None,
        session_id: str | None = None,
        evaluator: Evaluator | None = None,
        executor: "TrialExecutor | None" = None,
        callbacks: Sequence["Callback"] = (),
        extra: Mapping[str, Any] | None = None,
        lint: bool = True,
        strict: bool = False,
        lint_ignore: Sequence[str] = (),
    ) -> TuningSession:
        """Create a new durable session and return it ready to drive.

        The space is serialised with ``strict=False``: members that cannot
        cross a process boundary (callable constraints/conditions) stay
        active in *this* process but are listed under ``dropped`` in the
        stored spec, so a resumed session runs without them.

        Every create runs the space linter (:func:`repro.staticcheck.lint_space`)
        unless ``lint=False``: findings are surfaced as a single
        :class:`UserWarning` and attached to the returned session as
        ``session.lint_report``. With ``strict=True`` an ERROR-severity
        finding (unsatisfiable condition, dead parameter, contradictory
        constraints, …) rejects the space with a rule-id-bearing
        :class:`~repro.staticcheck.SpaceLintError`. ``lint_ignore``
        suppresses individual rule ids. Whatever rejects a create — the
        lint, an unknown optimizer or option, a bad budget, a ``session_id``
        outside :data:`~repro.core.journal.SESSION_ID_PATTERN` — does so *before*
        anything is persisted.
        """
        lint_report = None
        if lint:
            lint_report = lint_space(space, ignore=lint_ignore)
            if strict and not lint_report.ok:
                raise SpaceLintError(lint_report)
            if not lint_report.clean:
                warnings.warn(
                    "space lint found issues (create the session with strict=True "
                    "to reject instead):\n" + lint_report.format(),
                    UserWarning,
                    stacklevel=2,
                )
        objs = _normalise_objectives(objectives)
        meta = SessionMeta(
            session_id=check_session_id(session_id or new_session_id()),
            space=space_to_dict(space, strict=False),
            optimizer={
                "name": optimizer,
                "seed": seed,
                "options": dict(optimizer_options or {}),
            },
            objectives=[{"name": o.name, "minimize": o.minimize} for o in objs],
            max_trials=int(max_trials),
            max_cost=max_cost,
            batch_size=int(batch_size),
            created_at=time.time(),
            extra=dict(extra or {}),
        )
        # Everything that can reject the request has run once the session is
        # built; only then is it persisted, so a failed create leaves nothing.
        session = self._open(meta, space=space, evaluator=evaluator, executor=executor, callbacks=callbacks)
        meta.max_trials = session.max_trials  # a grid's budget is its size
        self.store.create_session(meta)
        session.lint_report = lint_report
        return session

    def resume(self, session_id: str) -> TuningSession:
        """Rebuild a session from storage: space, optimizer, full history.

        Journaled trials are re-observed by a fresh optimizer
        (:func:`rebuild_optimizer`), so its model picks up where the dead
        process left off and trial ids stay contiguous with the journal;
        its RNG stream is the new epoch's own, not a rerun of epoch 0's.
        Tell-idempotency state (seen ``report_id``s) is restored as well.
        The session comes back ask/tell-only; set ``session.evaluator`` to
        :meth:`~TuningSession.run` it.
        """
        return self._open(self.meta(session_id), self.store.load_trials(session_id), evaluator=None)

    def _open(
        self,
        meta: SessionMeta,
        records: Sequence[Mapping[str, Any]] = (),
        space: ConfigurationSpace | None = None,
        **wiring: Any,
    ) -> TuningSession:
        """The live session of the incarnation that follows ``records``;
        ``wiring`` (evaluator, executor, callbacks) is the session's own."""
        # Every resume is a new epoch: the untold asks of the dead process
        # are unrecoverable and this process draws from its own RNG stream.
        # Journaling the epoch per trial lets ``repro replay`` simulate
        # exactly these boundaries (records without provenance are epoch 0).
        epoch = max((record_epoch(r) for r in records), default=-1) + 1
        session = TuningSession(
            rebuild_optimizer(meta, records, epoch, space),
            max_trials=meta.max_trials,
            max_cost=meta.max_cost,
            batch_size=meta.batch_size,
            store=self.store,
            session_id=meta.session_id,
            **wiring,
        )
        session.epoch = epoch
        session._report_trial_ids.update(
            (r["report_id"], int(r["trial_id"])) for r in records if r.get("report_id") is not None
        )
        return session

    # -- registry views ------------------------------------------------------
    def exists(self, session_id: str) -> bool:
        return self.store.get_session(session_id) is not None

    def meta(self, session_id: str) -> SessionMeta:
        return TrialStore._require_session(self.store.get_session(session_id), session_id)

    def list_sessions(self) -> list[str]:
        return self.store.list_sessions()

    def status(self, session_id: str) -> dict[str, Any]:
        """A JSON-safe status snapshot straight from storage (no replay)."""
        meta = self.meta(session_id)
        records = self.store.load_trials(session_id)
        objective = _normalise_objectives(meta.objectives)[0]
        ranked = [r for r in records if r.get("status") == TrialStatus.SUCCEEDED.value
                  and r.get("metrics", {}).get(objective.name) is not None]
        best = ranked and best_at_top_fidelity(
            ranked, lambda r: objective.score(r["metrics"][objective.name]), lambda r: r.get("fidelity")
        )
        return {
            "session_id": session_id,
            "status": meta.status,
            "n_trials": len(records),
            "max_trials": meta.max_trials,
            "complete": budget_spent(
                len(records), sum(float(r.get("cost", 0.0)) for r in records), meta.max_trials, meta.max_cost
            ),
            "objective": {"name": objective.name, "minimize": objective.minimize},
            "best_value": float(best["metrics"][objective.name]) if best else None,
            "best_config": best.get("config") if best else None,
            "optimizer": meta.optimizer.get("name"),
        }

    def replay_session(self, session_id: str, trace: Any = None) -> "ReplayReport":
        """Re-execute a journaled session and verify it bit-exactly.

        See :func:`repro.core.replay.replay_session` (the engine behind
        ``repro replay``): per journaled epoch a fresh optimizer is built
        from the stored spec, every suggest call is re-executed at its
        recorded history position, crash imputations are re-run, and the
        state digests are compared record by record. Returns a
        :class:`~repro.core.replay.ReplayReport`; the first mismatch is
        reported as its ``divergence``, never raised.
        """
        from .replay import replay_session

        return replay_session(self.store, session_id, trace=trace)

    def complete(self, session_id: str) -> None:
        """Mark a session finished. Its journal stays: a later touch (a
        resume, or over the service any request naming it) re-hosts it, and
        it carries on from where it stopped."""
        self.store.update_session(session_id, status="completed")

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
