"""Search-space adapters — the LlamaTune toolbox.

LlamaTune (VLDB 2022; tutorial "Dimensionality Reduction" slide) makes DBMS
tuning sample-efficient by transforming the search space before the
optimizer sees it:

* **low-dimensional projection** — optimize in a random linear subspace
  (HesBO-style hashing embedding) because many knobs are correlated;
* **special knob-value handling** — reserve probability mass for sentinel
  values such as ``OFF``/``0`` that behave discontinuously;
* **knob-value bucketization** — snap numeric knobs to a coarse lattice to
  shrink the effective space.

An adapter exposes an *adapted* space for the optimizer and projects the
optimizer's points into the *target* space the system actually consumes.
Adapters compose: projection ∘ bucketization etc.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping, Sequence

import numpy as np

from ..exceptions import SpaceError
from .params import CategoricalParameter, FloatParameter
from .space import Configuration, ConfigurationSpace

__all__ = [
    "SpaceAdapter",
    "RandomProjectionAdapter",
    "BucketizationAdapter",
    "SpecialValuesAdapter",
    "LlamaTuneAdapter",
]


class SpaceAdapter(ABC):
    """Maps points of a (usually smaller) adapted space into the target space."""

    def __init__(self, target_space: ConfigurationSpace) -> None:
        self.target_space = target_space

    @property
    @abstractmethod
    def adapted_space(self) -> ConfigurationSpace:
        """The space the optimizer searches."""

    @abstractmethod
    def project(self, adapted_config: Configuration) -> Configuration:
        """Adapted-space point → target-space configuration."""


class RandomProjectionAdapter(SpaceAdapter):
    """HesBO-style hashing embedding into ``d`` latent dimensions.

    Each target knob ``i`` is assigned a latent dimension ``h(i)`` and a sign
    ``s(i) ∈ {±1}``; the target's unit value is ``0.5 + s(i)·(y[h(i)] − 0.5)``
    where ``y ∈ [0,1]^d`` is the latent point. Correlated knobs thus move
    together, which is exactly the structure LlamaTune exploits.
    """

    def __init__(self, target_space: ConfigurationSpace, d: int, seed: int | None = None) -> None:
        super().__init__(target_space)
        if d < 1:
            raise SpaceError(f"projection dimension must be >= 1, got {d}")
        self.d = min(int(d), target_space.n_dims)
        rng = np.random.default_rng(seed)
        n = target_space.n_dims
        # Guarantee every latent dim is used so no latent knob is dead.
        assignment = np.concatenate([
            np.arange(self.d),
            rng.integers(0, self.d, size=max(0, n - self.d)),
        ])
        rng.shuffle(assignment)
        self._assignment = assignment[:n]
        self._signs = rng.choice([-1.0, 1.0], size=n)
        self._adapted = ConfigurationSpace(f"{target_space.name}/proj{self.d}")
        for j in range(self.d):
            self._adapted.add(FloatParameter(f"z{j}", 0.0, 1.0, default=0.5))

    @property
    def adapted_space(self) -> ConfigurationSpace:
        return self._adapted

    def project(self, adapted_config: Configuration) -> Configuration:
        y = np.array([adapted_config[f"z{j}"] for j in range(self.d)])
        u = 0.5 + self._signs * (y[self._assignment] - 0.5)
        return self.target_space.from_unit_array(np.clip(u, 0.0, 1.0))


class BucketizationAdapter(SpaceAdapter):
    """Snap numeric knobs to ``n_buckets`` evenly spaced unit positions."""

    def __init__(self, target_space: ConfigurationSpace, n_buckets: int = 16) -> None:
        super().__init__(target_space)
        if n_buckets < 2:
            raise SpaceError(f"need at least 2 buckets, got {n_buckets}")
        self.n_buckets = int(n_buckets)

    @property
    def adapted_space(self) -> ConfigurationSpace:
        return self.target_space

    def project(self, adapted_config: Configuration) -> Configuration:
        u = self.target_space.to_unit_array(adapted_config)
        snapped = []
        for p, ui in zip(self.target_space.parameters, u):
            if isinstance(p, CategoricalParameter):
                snapped.append(ui)
            else:
                snapped.append(round(ui * (self.n_buckets - 1)) / (self.n_buckets - 1))
        return self.target_space.from_unit_array(np.asarray(snapped))


class SpecialValuesAdapter(SpaceAdapter):
    """Reserve a slice of the unit interval for special sentinel values.

    For knobs listed in ``special_values`` the lowest ``bias`` fraction of
    the unit interval maps to the sentinel(s) (e.g. ``0`` = feature off)
    instead of tiny ordinary values, so the optimizer can actually find the
    discontinuous regime.
    """

    def __init__(
        self,
        target_space: ConfigurationSpace,
        special_values: Mapping[str, Sequence[float]],
        bias: float = 0.2,
    ) -> None:
        super().__init__(target_space)
        if not 0.0 < bias < 1.0:
            raise SpaceError(f"bias must be in (0, 1), got {bias}")
        for name in special_values:
            if name not in target_space:
                raise SpaceError(f"unknown knob {name!r} in special_values")
        self.special_values = {k: list(v) for k, v in special_values.items()}
        self.bias = float(bias)

    @property
    def adapted_space(self) -> ConfigurationSpace:
        return self.target_space

    def project(self, adapted_config: Configuration) -> Configuration:
        values = adapted_config.as_dict()
        for name, sentinels in self.special_values.items():
            p = self.target_space[name]
            u = p.to_unit(values[name])
            if u < self.bias:
                slot = min(len(sentinels) - 1, int(u / self.bias * len(sentinels)))
                values[name] = sentinels[slot]
            else:
                # Re-stretch the remaining mass over the full ordinary range.
                values[name] = p.from_unit((u - self.bias) / (1.0 - self.bias))
        return self.target_space.make(values, check_constraints=False)


class LlamaTuneAdapter(SpaceAdapter):
    """The full LlamaTune pipeline: special values → projection → buckets."""

    def __init__(
        self,
        target_space: ConfigurationSpace,
        d: int = 8,
        n_buckets: int | None = 16,
        special_values: Mapping[str, Sequence[float]] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(target_space)
        self._projection = RandomProjectionAdapter(target_space, d, seed=seed)
        self._bucketize = (
            BucketizationAdapter(target_space, n_buckets) if n_buckets else None
        )
        self._special = SpecialValuesAdapter(target_space, special_values) if special_values else None

    @property
    def adapted_space(self) -> ConfigurationSpace:
        return self._projection.adapted_space

    def project(self, adapted_config: Configuration) -> Configuration:
        config = self._projection.project(adapted_config)
        if self._bucketize is not None:
            config = self._bucketize.project(config)
        if self._special is not None:
            config = self._special.project(config)
        return config
