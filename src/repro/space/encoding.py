"""Feature encodings of configurations for numerical surrogates.

The tutorial's "Discrete / Hybrid Optimization" slide lists the common
approaches for knobs like ``innodb_flush_method``: *impose order, one-hot,*
or use surrogates that split on categories natively (random forests).
Encoders turn configurations into fixed-width real vectors.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .params import CategoricalParameter, Parameter
from .space import Configuration, ConfigurationPool, ConfigurationSpace

if TYPE_CHECKING:  # pragma: no cover
    from ..core.optimizer import Trial

__all__ = ["SpaceEncoder", "OrdinalEncoder", "OneHotEncoder", "TrialEncodingCache"]


class SpaceEncoder(ABC):
    """Map from configurations to ``[0, 1]^n`` feature vectors."""

    def __init__(self, space: ConfigurationSpace) -> None:
        self.space = space

    @property
    @abstractmethod
    def n_features(self) -> int:
        """Width of the encoded vector."""

    @abstractmethod
    def encode(self, config: Configuration) -> np.ndarray:
        """Configuration → feature vector in ``[0, 1]^n_features``."""

    @abstractmethod
    def encode_many(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Configurations → an ``(n, n_features)`` matrix in one pass."""


def _column(configs: Sequence[Configuration], p: Parameter) -> list:
    """Knob ``p``'s value in every configuration: a pool's own column, else
    gathered row by row (the default for a configuration without the knob)."""
    if isinstance(configs, ConfigurationPool) and p.name in configs.space:
        return configs.column(p.name)
    return [c.get(p.name, p.default) for c in configs]


class OrdinalEncoder(SpaceEncoder):
    """One dimension per knob; categoricals mapped to bin midpoints.

    Imposes an artificial order on categories — cheap but can mislead
    distance-based surrogates (see E6).
    """

    @property
    def n_features(self) -> int:
        return self.space.n_dims

    def encode(self, config: Configuration) -> np.ndarray:
        return self.space.to_unit_array(config)

    def encode_many(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Column-vectorized batch encode: one ``to_unit_many`` per knob."""
        if not configs:
            return np.empty((0, self.n_features))
        X = np.empty((len(configs), self.n_features))
        for j, p in enumerate(self.space.parameters):
            X[:, j] = p.to_unit_many(_column(configs, p))
        return X


class OneHotEncoder(SpaceEncoder):
    """Numeric knobs get one unit dim; categoricals get one dim per choice."""

    def __init__(self, space: ConfigurationSpace) -> None:
        super().__init__(space)
        self._blocks: list[tuple[str, int, int]] = []  # (name, start, width)
        offset = 0
        for p in space.parameters:
            width = p.n_choices if isinstance(p, CategoricalParameter) else 1
            self._blocks.append((p.name, offset, width))
            offset += width
        self._width = offset

    @property
    def n_features(self) -> int:
        return self._width

    def encode(self, config: Configuration) -> np.ndarray:
        x = np.zeros(self._width)
        for name, start, width in self._blocks:
            p = self.space[name]
            if isinstance(p, CategoricalParameter):
                x[start + p.index_of(config[name])] = 1.0
            else:
                x[start] = p.to_unit(config[name])
        return x

    def encode_many(self, configs: Sequence[Configuration]) -> np.ndarray:
        """Block-vectorized batch encode: one pass per knob, not per row."""
        if not configs:
            return np.empty((0, self._width))
        X = np.zeros((len(configs), self._width))
        rows = np.arange(len(configs))
        for name, start, width in self._blocks:
            p = self.space[name]
            values = _column(configs, p)
            if isinstance(p, CategoricalParameter):
                idx = np.array([p.index_of(v) for v in values])
                X[rows, start + idx] = 1.0
            else:
                X[:, start] = p.to_unit_many(values)
        return X


class TrialEncodingCache:
    """Memoizes per-trial feature rows so append-only histories re-encode
    only the trials observed since the previous surrogate fit.

    Optimizers call :meth:`encode_trials` on every fit; rows are keyed by
    ``trial_id`` (unique and stable within one optimizer), so the call is
    O(new trials) instead of O(history). Configurations are immutable once
    observed, making the memo safe for the lifetime of the optimizer.
    """

    def __init__(self, encoder: SpaceEncoder) -> None:
        self.encoder = encoder
        self._rows: dict[int, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def encode_trials(self, trials: Sequence["Trial"]) -> np.ndarray:
        if not trials:
            return np.empty((0, self.encoder.n_features))
        missing = [t for t in trials if t.trial_id not in self._rows]
        if missing:
            fresh = self.encoder.encode_many([t.config for t in missing])
            for t, row in zip(missing, fresh):
                self._rows[t.trial_id] = row
            self.misses += len(missing)
        self.hits += len(trials) - len(missing)
        return np.stack([self._rows[t.trial_id] for t in trials])

    def stats(self) -> dict[str, float]:
        return {"encode_cache_hits": float(self.hits), "encode_cache_misses": float(self.misses)}
