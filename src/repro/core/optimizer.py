"""The optimizer protocol: suggest/observe over a configuration space.

The tutorial's "Optimizer as a Black Box" slide: *the target function is a
black box to the optimizer, and the optimizer is a black box to the target*.
Every tuning algorithm in this library — grid search through GP-BO through
online RL — speaks the same ask/tell protocol defined here, so the systems
machinery (noise handling, parallel trials, early abort, adapters) composes
with any of them.
"""

from __future__ import annotations

import enum
import hashlib
import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace

__all__ = ["TrialStatus", "Objective", "Trial", "History", "Optimizer", "rng_digest"]

#: A failed trial is imputed at this multiple of the worst real score (knowledge-transfer slide).
CRASH_PENALTY_FACTOR = 2.0


def json_safe(value: Any) -> Any:
    """Recursively coerce a payload to JSON-serialisable primitives.

    numpy scalars (anything exposing ``.item()``) become plain Python
    numbers; mappings and sequences are rebuilt with safe leaves. Digests
    here and every wire/journal payload (re-exported by
    :mod:`repro.core.codec`) go through this one function.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item") and not isinstance(value, Mapping):
        try:
            return value.item()
        except (TypeError, ValueError):
            pass
    if isinstance(value, Mapping):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(v) for v in value]
    return str(value)


def _digest(payload: Any) -> str:
    text = json.dumps(json_safe(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def rng_digest(rng: np.random.Generator) -> str:
    """Short, stable digest of a Generator's full bit-generator state.

    Two generators with equal digests produce identical draw streams — the
    provenance layer journals this per trial so ``repro replay`` can prove
    (or pinpoint the loss of) bit-exact determinism.
    """
    return _digest(rng.bit_generator.state)


class TrialStatus(enum.Enum):
    """Lifecycle of one benchmark trial."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"  # system crashed / config undeployable
    ABORTED = "aborted"  # cut short by an early-abort policy or guardrail


@dataclass(frozen=True)
class Objective:
    """A metric to optimize and its direction.

    ``score(value)`` maps the raw metric into canonical *minimize* form so
    optimizers never branch on direction.
    """

    name: str
    minimize: bool = True

    def score(self, value: float) -> float:
        return float(value) if self.minimize else -float(value)

    def unscore(self, score: float) -> float:
        return float(score) if self.minimize else -float(score)


@dataclass(slots=True)
class Trial:
    """One evaluated (or failed) configuration with its measured metrics.

    Slotted, and holding only what the optimizer reads: a hosted session
    keeps every trial it observed for as long as it lives. The journal-level
    lineage of a trial (seed, state digest, space version, ask coordinates)
    is a field of its journal *record* (:func:`repro.core.codec.encode_trial`),
    not of the trial.
    """

    trial_id: int
    config: Configuration
    status: TrialStatus = TrialStatus.PENDING
    metrics: dict[str, float] = field(default_factory=dict)
    cost: float = 0.0  # resource cost of the trial (e.g. benchmark seconds)
    fidelity: float | None = None  # multi-fidelity level, None = full fidelity
    context: dict[str, Any] = field(default_factory=dict)  # workload / machine / etc.

    @property
    def ok(self) -> bool:
        return self.status is TrialStatus.SUCCEEDED

    def metric(self, name: str) -> float:
        try:
            return self.metrics[name]
        except KeyError:
            raise OptimizerError(f"trial {self.trial_id} has no metric {name!r}") from None


class History:
    """Append-only record of trials; the optimizer's training data."""

    def __init__(self, objectives: Sequence[Objective]) -> None:
        if not objectives:
            raise OptimizerError("need at least one objective")
        self.objectives = list(objectives)
        self._trials: list[Trial] = []

    @property
    def primary(self) -> Objective:
        return self.objectives[0]

    @property
    def trials(self) -> list[Trial]:
        return list(self._trials)

    def __len__(self) -> int:
        return len(self._trials)

    def __iter__(self):
        return iter(self._trials)

    def __getitem__(self, trial_id: int) -> Trial:
        """The trial with this id — ids are contiguous from 0, so O(1)."""
        return self._trials[trial_id]

    def add(self, trial: Trial) -> None:
        self._trials.append(trial)

    def completed(self) -> list[Trial]:
        return [t for t in self._trials if t.ok]

    def failed(self) -> list[Trial]:
        return [t for t in self._trials if t.status in (TrialStatus.FAILED, TrialStatus.ABORTED)]

    @staticmethod
    def crash_score(real_scores: np.ndarray) -> float:
        """Pessimistic score for a failed trial, given the real ones so far.

        Knowledge-transfer slide: *Bad: no score (e.g. crashed)? Make it up!
        N × worst score measured* — pushed strictly further in the bad
        direction whatever the score's sign (maximize objectives have
        negative scores).
        """
        worst = float(real_scores.max())
        return worst + (CRASH_PENALTY_FACTOR - 1.0) * abs(worst) + 1e-9

    def training_data(self, objective: Objective | None = None) -> tuple[list[Trial], np.ndarray]:
        """(trials, scores) for surrogate fitting, with *live* crash imputation.

        Failed trials are re-imputed against the current worst real score at
        every call — a crash observed before any success would otherwise pin
        an arbitrary sentinel into the model's scale forever.
        """
        obj = objective or self.primary
        real = self.completed()
        real_scores = np.array([obj.score(t.metric(obj.name)) for t in real])
        if len(real_scores) == 0:
            return real, real_scores
        failed = self.failed()
        imputed = self.crash_score(real_scores)
        return real + failed, np.concatenate([real_scores, np.full(len(failed), imputed)])

    def scores(self, objective: Objective | None = None) -> np.ndarray:
        """Canonical minimize-scores of completed trials, in trial order."""
        obj = objective or self.primary
        return np.array([obj.score(t.metric(obj.name)) for t in self.completed()])

    def best(self, objective: Objective | None = None) -> Trial:
        obj = objective or self.primary
        done = self.completed()
        if not done:
            raise OptimizerError("no completed trials yet")
        return min(done, key=lambda t: obj.score(t.metric(obj.name)))

    def best_value(self, objective: Objective | None = None) -> float:
        obj = objective or self.primary
        return self.best(obj).metric(obj.name)

    def incumbent_curve(self, objective: Objective | None = None) -> np.ndarray:
        """Best-so-far metric value after each trial (failed trials repeat).

        This is the convergence curve every offline-tuning figure plots.
        """
        obj = objective or self.primary
        best = np.inf
        curve = []
        for t in self._trials:
            if t.ok:
                best = min(best, obj.score(t.metric(obj.name)))
            curve.append(obj.unscore(best) if np.isfinite(best) else np.nan)
        return np.array(curve)

    def total_cost(self) -> float:
        return float(sum(t.cost for t in self._trials))


class Optimizer(ABC):
    """Base class for all tuning algorithms (ask/tell protocol).

    Subclasses implement :meth:`_suggest` (and optionally :meth:`_on_observe`)
    — everything else, including trial bookkeeping and failure imputation, is
    handled here.
    """

    #: Set by subclasses that natively handle >1 objective (e.g. ParEGO).
    supports_multi_objective: bool = False

    #: Whether observations for configurations this optimizer did not
    #: suggest improve its model (surrogate methods) or would corrupt its
    #: internal bookkeeping (generation-based methods match observations to
    #: suggestions by queue order). Ensembles consult this before sharing.
    accepts_foreign_observations: bool = True

    def __init__(
        self,
        space: ConfigurationSpace,
        objectives: Sequence[Objective] | Objective | None = None,
        seed: int | None = None,
    ) -> None:
        if isinstance(objectives, Objective):
            objectives = [objectives]
        self.space = space
        self.objectives = list(objectives) if objectives else [Objective("score", minimize=True)]
        if len(self.objectives) > 1 and not self.supports_multi_objective:
            raise OptimizerError(
                f"{type(self).__name__} is single-objective; use ParEGOOptimizer "
                "or scalarize the objectives first"
            )
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.history = History(self.objectives)
        self._next_trial_id = 0
        # Running digest over everything this optimizer has observed, in
        # order — part of :meth:`state_digest_parts`. Incremental (one sha256
        # update per observe), so journaling provenance stays O(1)/trial.
        self._history_sha = hashlib.sha256()
        #: How many suggestions degraded to random sampling because the
        #: surrogate path failed. Folded into the state digest (only once
        #: nonzero, so healthy runs keep their historic digests) and into
        #: ``surrogate_stats`` where available.
        self._degraded_total = 0

    @property
    def objective(self) -> Objective:
        return self.objectives[0]

    # -- ask ----------------------------------------------------------------
    def suggest(self, n: int = 1) -> list[Configuration]:
        """Propose the next ``n`` configurations to evaluate."""
        if n < 1:
            raise OptimizerError(f"n must be >= 1, got {n}")
        if n > 1:
            batch = self._suggest_batch(n)
            if batch is not None:
                return batch
        return [self._suggest() for _ in range(n)]

    @abstractmethod
    def _suggest(self) -> Configuration:
        """Produce a single suggestion."""

    def _suggest_batch(self, n: int) -> list[Configuration] | None:
        """Optional batched path for ``suggest(n > 1)``.

        Surrogate optimizers override this with constant-liar fantasization
        so a batch of ``n`` costs one model fit instead of ``n``. Returning
        ``None`` falls back to ``n`` independent :meth:`_suggest` calls.
        """
        return None

    def suggested_fidelity(self, config: Configuration) -> float | None:
        """The fidelity this optimizer means ``config``, one of its latest
        suggestions, to be evaluated at; ``None`` leaves it to the caller.

        A session hands it out with the suggestion and journals it with the
        trial when the report names none.
        """
        return None

    def _degraded_suggest(self, stage: str, err: Exception) -> Configuration:
        """Graceful degradation: the surrogate path failed, sample randomly.

        A numerically broken fit (singular kernel, NaN scores) or a failing
        model must not kill a long campaign — the tuner falls back to the
        behaviour it had before the model took over, announces it with an
        ``optimizer.degraded`` event, and keeps going. The draw comes from
        ``self.rng``, the same stream random sampling uses, so the degraded
        suggestion is exactly as deterministic as a healthy one given the
        same failure.
        """
        from ..telemetry.spans import emit_event  # deferred: optimizer is telemetry-light

        self._degraded_total += 1
        emit_event(
            "optimizer.degraded",
            severity="warning",
            message=f"{stage} failed ({type(err).__name__}: {err}); suggesting randomly",
            optimizer=type(self).__name__,
            stage=stage,
            degraded_total=self._degraded_total,
        )
        return self.space.sample(self.rng)

    # -- tell ----------------------------------------------------------------
    def observe(
        self,
        config: Configuration,
        metrics: Mapping[str, float] | float,
        cost: float = 1.0,
        status: TrialStatus = TrialStatus.SUCCEEDED,
        fidelity: float | None = None,
        context: Mapping[str, Any] | None = None,
    ) -> Trial:
        """Record a trial result and update the internal model."""
        if isinstance(metrics, (int, float, np.floating, np.integer)):
            metrics = {self.objective.name: float(metrics)}
        metrics = {k: float(v) for k, v in metrics.items()}
        if status is TrialStatus.SUCCEEDED:
            for obj in self.objectives:
                if obj.name not in metrics:
                    raise OptimizerError(
                        f"completed trial is missing objective metric {obj.name!r}; got {sorted(metrics)}"
                    )
        return self._ingest(config, metrics, cost, status, fidelity, context)

    def observe_failure(
        self,
        config: Configuration,
        cost: float = 1.0,
        status: TrialStatus = TrialStatus.FAILED,
        fidelity: float | None = None,
        context: Mapping[str, Any] | None = None,
    ) -> Trial:
        """Record a crashed/aborted trial under a pessimistic imputed score
        (:meth:`History.crash_score`), which steers the model away from the
        crash region without poisoning the scale too badly."""
        metrics: dict[str, float] = {}
        for obj in self.objectives:
            scores = self.history.scores(obj)
            imputed = History.crash_score(scores) if len(scores) else 1e9
            metrics[obj.name] = obj.unscore(imputed)
        return self._ingest(config, metrics, cost, status, fidelity, context)

    def _ingest(
        self,
        config: Configuration,
        metrics: dict[str, float],
        cost: float,
        status: TrialStatus,
        fidelity: float | None,
        context: Mapping[str, Any] | None,
    ) -> Trial:
        """The one way a trial enters: id, history, running digest, model hook."""
        trial = Trial(
            trial_id=self._next_trial_id,
            config=config,
            status=status,
            metrics=metrics,
            cost=float(cost),
            fidelity=fidelity,
            context=dict(context or {}),
        )
        self._next_trial_id += 1
        self.history.add(trial)
        self._update_history_sha(trial)
        self._on_observe(trial)
        return trial

    def _on_observe(self, trial: Trial) -> None:
        """Hook: update the model after any trial; failures arrive with imputed metrics."""

    # -- provenance ---------------------------------------------------------------
    def _update_history_sha(self, trial: Trial) -> None:
        text = json.dumps(
            json_safe(
                [
                    trial.trial_id,
                    trial.config.as_dict(),
                    trial.metrics,
                    trial.status.value,
                    trial.cost,
                ]
            ),
            sort_keys=True,
            separators=(",", ":"),
        )
        self._history_sha.update(text.encode("utf-8"))

    def _digest_state(self) -> dict[str, Any]:
        """Hook: model counters folded into :meth:`state_digest_parts`.

        Subclasses return the internal-state summary that should be
        provenance-visible (fit counts, pending lies, per-arm pulls, …).
        An empty dict (the default) omits the ``model`` component.
        """
        return {}

    def state_digest_parts(self) -> dict[str, str]:
        """Named digest components, so replay can report *which* part diverged.

        ``rng`` covers the full bit-generator state, ``history`` is the
        running hash over every observed trial, and ``model`` (when a
        subclass implements :meth:`_digest_state`) covers surrogate/model
        counters.
        """
        parts = {
            "rng": rng_digest(self.rng),
            "history": self._history_sha.hexdigest()[:12],
        }
        state = self._digest_state()
        if self._degraded_total:
            # Degraded (random-fallback) suggestions are provenance-visible:
            # a replay whose surrogate *doesn't* fail must not silently
            # match a journal recorded under degradation.
            state = {**state, "degraded_total": self._degraded_total}
        if state:
            parts["model"] = _digest(state)
        return parts

    # -- warm start --------------------------------------------------------------
    def warm_start(self, trials: Iterable[Trial]) -> int:
        """Seed the optimizer with prior trials (knowledge transfer).

        Returns the number of trials ingested. Configurations are re-made in
        this optimizer's space so histories from compatible spaces transfer.
        """
        count = 0
        for t in trials:
            config = self.space.make(
                {k: v for k, v in t.config.as_dict().items() if k in self.space},
                check_constraints=False,
            )
            self.observe(config, t.metrics, cost=t.cost, status=t.status, fidelity=t.fidelity, context=t.context)
            count += 1
        return count

    # -- results -----------------------------------------------------------------
    def best_config(self) -> Configuration:
        return self.history.best().config

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(space={self.space.name!r}, n_trials={len(self.history)})"
