"""Structured-space BO: one surrogate per activation pattern (slide 61).

Jenatton et al. (2017) model tree-structured dependencies with a mixture
of GPs selected by the active path. The practical core reproduced here:
configurations whose *active knob sets* differ (``jit=on`` vs ``off``)
live on different manifolds, so one global GP smears them together.
:class:`StructuredBayesianOptimizer` partitions the history by activation
signature, fits one GP per group over *its active dimensions only*, and
maximises EI per group — falling back to shared data when a group is
still small.
"""

from __future__ import annotations

import numpy as np

from ..core import Objective
from ..space import Configuration, ConfigurationSpace
from ..space.encoding import OrdinalEncoder
from .gp import GaussianProcessRegressor, default_kernel
from .model_based import ModelBasedOptimizer

__all__ = ["StructuredBayesianOptimizer"]


class StructuredBayesianOptimizer(ModelBasedOptimizer):
    """Per-activation-group GPs with EI maximised across groups.

    For spaces without conditions this degrades gracefully to vanilla BO
    (one group). With conditions, each group's GP sees only the dimensions
    that are actually active there — no wasted length-scales on pinned
    knobs, which is the sample-efficiency win of exploiting structure.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        n_init: int = 8,
        n_candidates: int = 384,
        min_group_size: int = 4,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(
            space,
            encoder=OrdinalEncoder(space),
            n_init=n_init,
            n_candidates=n_candidates,
            objectives=objectives,
            seed=seed,
        )
        self.min_group_size = int(min_group_size)
        # One GP per activation signature (the frozenset of active knobs).
        self._models: dict[frozenset, GaussianProcessRegressor] = {}

    def _active_dims(self, signature: frozenset) -> list[int]:
        return [i for i, name in enumerate(self.space.names) if name in signature]

    @staticmethod
    def _by_signature(configs: list[Configuration]) -> dict[frozenset, list[int]]:
        groups: dict[frozenset, list[int]] = {}
        for i, config in enumerate(configs):
            groups.setdefault(config.active, []).append(i)
        return groups

    def _fit(self) -> bool:
        self._models.clear()
        trials, X, y = self._training_set()
        for sig, rows in self._by_signature([t.config for t in trials]).items():
            if len(rows) < self.min_group_size:
                continue
            dims = self._active_dims(sig)
            gp = GaussianProcessRegressor(kernel=default_kernel(len(dims)), seed=0)
            gp.fit(X[np.ix_(rows, dims)], y[rows])
            self._models[sig] = gp
        return bool(self._models)  # every group still too small: keep sampling

    # -- suggest ------------------------------------------------------------------
    def _candidates(self) -> list[Configuration]:
        return self.space.sample_many(self.n_candidates, self.rng)

    def _pick(self, cands: list[Configuration]) -> Configuration:
        best_score = float(self.history.scores().min())
        X = self.encoder.encode_many(cands)
        best_pair: tuple[float, Configuration] | None = None
        unmodelled: list[Configuration] = []
        for sig, indices in self._by_signature(cands).items():
            gp = self._models.get(sig)
            if gp is None:
                # Group with too little data for a GP yet: keep one
                # representative so new structures still get explored.
                unmodelled.append(cands[indices[int(self.rng.integers(len(indices)))]])
                continue
            mean, std = gp.predict(X[np.ix_(indices, self._active_dims(sig))], return_std=True)
            ei = self.acquisition(mean, std, best_score)
            j = int(np.argmax(ei))
            if best_pair is None or ei[j] > best_pair[0]:
                best_pair = (float(ei[j]), cands[indices[j]])
        if unmodelled and (best_pair is None or self.rng.random() < 0.1):
            return unmodelled[int(self.rng.integers(len(unmodelled)))]
        return best_pair[1]

    @property
    def n_groups(self) -> int:
        """Activation patterns currently modelled."""
        self._refresh_model()
        return len(self._models)
