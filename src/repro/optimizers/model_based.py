"""The one sequential model-based optimization loop (slide 33).

1. Evaluate the expensive function f(xᵢ);
2. update the statistical model M with (xᵢ, f(xᵢ));
3. pick x_{i+1} = argmax AF(M, x);
4. repeat.

GP-BO, SMAC and every GP technique built on BO are this loop with one step
swapped out, so the loop is written once — :meth:`ModelBasedOptimizer._suggest`
— and a technique overrides only the step that is its own:

==================  ==========================================================
hook                what it decides
==================  ==========================================================
``_before_model``   suggestions that bypass the model (initial design, random
                    interleaving) and per-suggestion bookkeeping that must
                    precede the fit (focus rotation, scalarisation weights)
``_fit``            how the surrogate(s) are trained from the history
``_candidates``     the pool the acquisition is maximised over (default: the
                    global + local mix around ``_incumbent()``, which
                    constrained BO makes the best feasible trial; the online
                    safe and contextual BOs use a trust region,
                    ``acquisition.trust_region``)
``_scores``         each candidate's acquisition value (default: EI of the
                    model's posterior against the best observed score)
``_features``       the model's input rows for candidates (default: their
                    encodings; BO appends its column)
==================  ==========================================================

``_pick`` takes the candidate with the highest score. Only multi-fidelity BO
(a level × candidate utility) and the online safe BO ("nothing safe: stay on
the incumbent") override it. ``_before_model`` and ``_pick`` may return
``(configuration, memo)`` like :meth:`Optimizer._suggest` (multi-fidelity BO's
memo is the level).

Structured BO (the activation pattern), multi-fidelity BO (the fidelity
level), multi-task BO (the task) and OnlineTune's contextual BO (the
observation vector) are :class:`~repro.optimizers.bo.BayesianOptimizer` plus
its two column hooks, ``_trial_column`` and ``_candidate_column``; ParEGO is BO
plus a scalarised target, constrained BO is BO plus a feasibility weight in
``_scores``.

**RNG-order contract.** A suggestion draws from ``self.rng`` in hook order —
``_before_model``, then ``_candidates``, then ``_pick`` — and ``_fit`` never
touches ``self.rng`` (surrogates own a separate generator). Replay and the
recorded goldens (``tests/data/``) depend on it: moving a draw between hooks
changes every later suggestion of a seeded campaign.

Everything around the hooks is shared: the staleness flag set on every
observation, the ``surrogate.fit`` / ``acquisition.optimize`` spans, the
degraded-to-random fallback for *numerical* failures (programming errors
propagate), the per-trial :class:`~repro.space.encoding.TrialEncodingCache`,
and ``surrogate_stats()``.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Any, Sequence

import numpy as np

from ..core import Objective, Optimizer, Trial
from ..core.optimizer import Suggested
from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace
from ..space.encoding import SpaceEncoder, TrialEncodingCache
from ..telemetry.spans import span
from .acquisition import AcquisitionFunction, ExpectedImprovement, generate_candidates

__all__ = ["ModelBasedOptimizer", "NUMERICAL_ERRORS"]

#: What the degraded path absorbs: a singular kernel (``LinAlgError`` is a
#: ``ValueError``), non-finite training data, overflow (``FloatingPointError``
#: is an ``ArithmeticError``). Anything else — ``TypeError``, ``KeyError``,
#: ``AttributeError`` — is a bug in a hook and must surface, not turn a
#: campaign into silent random search.
NUMERICAL_ERRORS = (ArithmeticError, ValueError)


class ModelBasedOptimizer(Optimizer):
    """Base of every surrogate-driven optimizer; owns the suggest loop.

    ``model`` is anything with ``fit(X, y)`` and
    ``predict(X, return_std=True)`` (and optionally ``stats_dict()``); a
    subclass with further surrogates (constrained BO's constraint GPs) fits
    them in :meth:`_fit` and reads them in :meth:`_scores`.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        *,
        encoder: SpaceEncoder,
        model: Any = None,
        n_init: int,
        n_candidates: int,
        acquisition: AcquisitionFunction | None = None,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, objectives, seed=seed)
        if n_init < 1:
            raise OptimizerError(f"n_init must be >= 1, got {n_init}")
        self.n_init = int(n_init)
        self.n_candidates = int(n_candidates)
        self.encoder = encoder
        self.model = model
        self.acquisition = acquisition if acquisition is not None else ExpectedImprovement()
        # Per-trial feature-row memo: each fit re-encodes only new trials.
        self._encoding_cache = TrialEncodingCache(encoder)
        self._model_stale = True  # observations arrived since the last fit
        self._model_ready = False  # the last fit produced something to ask

    # -- the loop ------------------------------------------------------------
    def _suggest(self) -> Suggested:
        config = self._before_model()
        if config is not None:
            return config
        try:
            self._refresh_model()
        except NUMERICAL_ERRORS as err:  # stays stale: the next suggest retries the fit
            return self._degraded_suggest("surrogate.fit", err)
        if not self._model_ready:
            return self.space.sample(self.rng)
        try:
            with span("acquisition.optimize", n_candidates=self.n_candidates):
                return self._pick(self._candidates())
        except NUMERICAL_ERRORS as err:
            return self._degraded_suggest("acquisition.optimize", err)

    def _refresh_model(self) -> None:
        """Refit iff something was observed since the last successful fit."""
        if self._model_stale:
            with span("surrogate.fit", n_observations=len(self.history)):
                self._model_ready = self._fit()
            self._model_stale = False

    def _on_observe(self, trial: Trial, memo: object) -> None:
        self._model_stale = True

    # -- hooks ---------------------------------------------------------------
    def _before_model(self) -> Configuration | None:
        """Hook 1: return a configuration to skip the model for this
        suggestion, ``None`` to go on. Default: the random initial design.

        An override whose model depends on per-suggestion state (ParEGO's
        weights) sets ``_model_stale`` here to force the refit."""
        if len(self.history.completed()) < self.n_init:
            return self.space.sample(self.rng)
        return None

    @abstractmethod
    def _fit(self) -> bool:
        """Hook 2: train the surrogate(s) on the history. Return ``False``
        when there is still nothing to ask (the suggestion is then random)."""

    def _candidates(self) -> Sequence[Configuration]:
        """Hook 3: the acquisition's candidate pool. Default: global samples
        plus local perturbations of :meth:`_incumbent`."""
        return generate_candidates(self.space, self.rng, self.n_candidates, incumbent=self._incumbent())

    def _incumbent(self) -> Configuration:
        """The configuration the default pool perturbs: the best completed
        trial's (past the initial design there always is one)."""
        return self.history.best().config

    def _scores(self, cands: Sequence[Configuration]) -> np.ndarray:
        """Hook 4: each candidate's acquisition value, higher is better.
        Default: the acquisition of the model's posterior against the best
        observed score."""
        mean, std = self.model.predict(self._features(cands), return_std=True)
        return self.acquisition(mean, std, float(self.history.scores().min()))

    def _pick(self, cands: Sequence[Configuration]) -> Configuration:
        """The candidate with the highest :meth:`_scores`."""
        return cands[int(np.argmax(self._scores(cands)))]

    def _features(self, configs: Sequence[Configuration]) -> np.ndarray:
        """The model's input rows for ``configs``. Default: their encodings."""
        return self.encoder.encode_many(configs)

    # -- shared helpers ------------------------------------------------------
    def _training_set(self) -> tuple[list[Trial], np.ndarray, np.ndarray]:
        """(trials, encoded X, minimize-scores y) of the primary objective.

        Failed trials enter with live-imputed penalty scores: the model must
        learn where the crash region is, on the current y-scale.
        """
        trials, y = self.history.training_data(self.objective)
        return trials, self._encoding_cache.encode_trials(trials), y

    def surrogate_stats(self) -> dict[str, float]:
        """Hot-path counters: the model's own (when it keeps any), encoding
        cache hits, and how often a suggestion degraded to random.

        Picked up by :class:`~repro.telemetry.TelemetryCallback` and the
        service metrics endpoint, which register them as gauges.
        """
        model_stats = getattr(self.model, "stats_dict", None)
        out = model_stats() if model_stats is not None else {}
        out.update(self._encoding_cache.stats())
        out["degraded_total"] = float(self._degraded_total)
        return out
