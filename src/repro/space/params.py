"""Tunable parameter ("knob") definitions.

A parameter owns its domain, default value, optional transform (log scale,
quantization), and an optional sampling prior. Parameters know how to map
values to and from the unit interval ``[0, 1]`` — the canonical encoding the
numerical optimizers operate in (slide "Configuration Space").
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Any, Hashable, Iterable, Sequence

import numpy as np

from ..exceptions import InvalidValueError, SpaceError
from .priors import Prior, UniformPrior

__all__ = [
    "Parameter",
    "FloatParameter",
    "IntegerParameter",
    "CategoricalParameter",
    "BooleanParameter",
]


class Parameter(ABC):
    """A single tunable knob.

    Subclasses implement the domain logic; the base class only stores the
    name and default and defines the encoding protocol used by optimizers.
    """

    def __init__(self, name: str, default: Any) -> None:
        if not name or not isinstance(name, str):
            raise SpaceError(f"parameter name must be a non-empty string, got {name!r}")
        self.name = name
        self.default = default

    # -- domain ----------------------------------------------------------
    @abstractmethod
    def validate(self, value: Any) -> bool:
        """Return True iff ``value`` lies in this parameter's domain."""

    def check(self, value: Any) -> Any:
        """Validate and return ``value``, raising :class:`InvalidValueError`."""
        if not self.validate(value):
            raise InvalidValueError(f"{value!r} is not a valid value for {self!r}")
        return value

    @abstractmethod
    def witnesses(self, operands: Iterable[Any]) -> list[Any]:
        """Values a draw can take that meet every region ``operands`` cut
        the domain into: a drawn value's equality with, order against and
        membership among the operands is that of some witness, so a condition
        comparing the value with them answers on the witnesses all it can
        answer on the domain."""

    # -- sampling --------------------------------------------------------
    @abstractmethod
    def sample(self, rng: np.random.Generator) -> Any:
        """Draw one value from the parameter's prior."""

    @abstractmethod
    def sample_many(self, rng: np.random.Generator, n: int) -> list[Any]:
        """Draw ``n`` values in one vectorized pass (plain-Python scalars)."""

    # -- unit-cube encoding ----------------------------------------------
    @abstractmethod
    def to_unit(self, value: Any) -> float:
        """Map a domain value into ``[0, 1]``."""

    @abstractmethod
    def to_unit_many(self, values: Sequence[Any]) -> np.ndarray:
        """Vectorized :meth:`to_unit` over a batch of values."""

    @abstractmethod
    def from_unit(self, u: float) -> Any:
        """Map a unit-interval position back into the domain."""

    # -- neighbourhoods (annealing / GA / local search) --------------------
    @abstractmethod
    def neighbor(self, value: Any, rng: np.random.Generator, scale: float = 0.1) -> Any:
        """Return a value near ``value``; ``scale`` in (0, 1] sets the step."""

    @abstractmethod
    def neighbor_many(
        self,
        value: Any,
        rng: np.random.Generator,
        n: int,
        scale: float | np.ndarray = 0.1,
    ) -> list[Any]:
        """Draw ``n`` neighbours of one value (``scale`` may be per-row)."""

    @property
    def is_numeric(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class _NumericParameter(Parameter):
    """Shared logic for float and integer knobs: bounds, log scale, prior."""

    def __init__(
        self,
        name: str,
        lower: float,
        upper: float,
        default: float | None = None,
        log: bool = False,
        prior: Prior | None = None,
    ) -> None:
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise SpaceError(f"{name}: bounds must be finite, got [{lower}, {upper}]")
        if lower >= upper:
            raise SpaceError(f"{name}: lower ({lower}) must be < upper ({upper})")
        if log and lower <= 0:
            raise SpaceError(f"{name}: log-scale parameters need lower > 0, got {lower}")
        self.lower = lower
        self.upper = upper
        self.log = log
        self.prior = prior if prior is not None else UniformPrior()
        if default is None:
            default = self.from_unit(0.5)
        super().__init__(name, default)
        self.check(self.default)

    @property
    def is_numeric(self) -> bool:
        return True

    def _to_internal(self, value: float) -> float:
        return math.log(value) if self.log else float(value)

    def _from_internal(self, x: float) -> float:
        return math.exp(x) if self.log else float(x)

    @property
    def _internal_bounds(self) -> tuple[float, float]:
        return self._to_internal(self.lower), self._to_internal(self.upper)

    def to_unit(self, value: Any) -> float:
        lo, hi = self._internal_bounds
        u = (self._to_internal(float(value)) - lo) / (hi - lo)
        return min(1.0, max(0.0, u))

    def to_unit_many(self, values: Sequence[Any]) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        internal = np.log(v) if self.log else v
        lo, hi = self._internal_bounds
        return np.clip((internal - lo) / (hi - lo), 0.0, 1.0)

    def _unit_to_float(self, u: float) -> float:
        u = min(1.0, max(0.0, float(u)))
        lo, hi = self._internal_bounds
        # Clamp: lo + u*(hi-lo) and exp(log(...)) round-trips can drift a ulp
        # (or collapse entirely for subnormal-scale bounds) outside the domain.
        return min(self.upper, max(self.lower, self._from_internal(lo + u * (hi - lo))))

    def _unit_to_float_many(self, u: Sequence[float]) -> np.ndarray:
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        lo, hi = self._internal_bounds
        internal = lo + u * (hi - lo)
        v = np.exp(internal) if self.log else internal
        return np.clip(v, self.lower, self.upper)

    def witnesses(self, operands: Iterable[Any]) -> list[Any]:
        """The bounds and each operand inside them, each with the nearest
        values below and above it that a draw can take (:meth:`_beside`)."""
        inside = [t for t in operands if isinstance(t, (int, float, np.integer, np.floating))
                  and self.lower <= t <= self.upper]
        return list(dict.fromkeys(v for t in (self.lower, self.upper, *inside) for v in self._beside(t)))

    @abstractmethod
    def _beside(self, t: float) -> list[Any]:
        """``t``, if a draw can take it, and the nearest values a draw can
        take below and above it (``t`` lies within the bounds)."""

    def sample(self, rng: np.random.Generator) -> Any:
        return self.from_unit(self.prior.sample_unit(rng))

    @abstractmethod
    def from_unit_many(self, u: Sequence[float]) -> list[Any]:
        """Vectorized :meth:`from_unit` over a batch of unit positions."""

    def sample_many(self, rng: np.random.Generator, n: int) -> list[Any]:
        return self.from_unit_many(self.prior.sample_unit_many(rng, n))

    def neighbor(self, value: Any, rng: np.random.Generator, scale: float = 0.1) -> Any:
        u = self.to_unit(value)
        step = rng.normal(0.0, scale)
        return self.from_unit(min(1.0, max(0.0, u + step)))

    def neighbor_many(
        self,
        value: Any,
        rng: np.random.Generator,
        n: int,
        scale: float | np.ndarray = 0.1,
    ) -> list[Any]:
        u = self.to_unit(value)
        steps = rng.normal(0.0, 1.0, size=int(n)) * np.asarray(scale, dtype=float)
        return self.from_unit_many(np.clip(u + steps, 0.0, 1.0))


class FloatParameter(_NumericParameter):
    """A continuous knob, optionally on a log scale or quantized.

    Parameters
    ----------
    name:
        Knob name, e.g. ``"checkpoint_completion_target"``.
    lower, upper:
        Inclusive bounds.
    default:
        Default value; midpoint (in transformed space) when omitted.
    log:
        Optimize in log-space — appropriate for scale-free knobs such as
        ``sched_migration_cost_ns``.
    quantization:
        Round values to multiples of this step (e.g. 0.05).
    prior:
        Sampling prior over the unit interval; uniform when omitted.
    """

    def __init__(
        self,
        name: str,
        lower: float,
        upper: float,
        default: float | None = None,
        log: bool = False,
        quantization: float | None = None,
        prior: Prior | None = None,
    ) -> None:
        if quantization is not None and quantization <= 0:
            raise SpaceError(f"{name}: quantization must be positive")
        self.quantization = quantization
        super().__init__(name, lower, upper, default=default, log=log, prior=prior)

    def _quantize(self, value: float) -> float:
        if self.quantization is None:
            return value
        q = self.quantization
        snapped = round(value / q) * q
        return min(self.upper, max(self.lower, snapped))

    def validate(self, value: Any) -> bool:
        if isinstance(value, bool) or not isinstance(value, (int, float, np.floating, np.integer)):
            return False
        try:
            v = float(value)
        except OverflowError:  # an int past the float range lies past any bound
            return False
        if not (self.lower <= v <= self.upper) or not math.isfinite(v):
            return False
        if self.quantization is not None:
            ratio = v / self.quantization
            if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
                return False
        return True

    def _beside(self, t: float) -> list[float]:
        if self.quantization is None:
            near = (math.nextafter(float(t), -math.inf), float(t), math.nextafter(float(t), math.inf))
            return [v for v in near if self.lower <= v <= self.upper]
        q = self.quantization  # grid points near t, clipped and snapped as a draw is
        ks = range(math.ceil(t / q) - 1, math.floor(t / q) + 2)
        return [self._quantize(min(self.upper, max(self.lower, k * q))) for k in ks]

    def from_unit(self, u: float) -> float:
        return self._quantize(self._unit_to_float(u))

    def from_unit_many(self, u: Sequence[float]) -> list[float]:
        v = self._unit_to_float_many(u)
        if self.quantization is not None:
            q = self.quantization
            v = np.clip(np.round(v / q) * q, self.lower, self.upper)
        return v.tolist()


class IntegerParameter(_NumericParameter):
    """An integer knob, e.g. ``max_worker_processes`` or a buffer size in MB."""

    def __init__(
        self,
        name: str,
        lower: int,
        upper: int,
        default: int | None = None,
        log: bool = False,
        prior: Prior | None = None,
    ) -> None:
        if int(lower) != lower or int(upper) != upper:
            raise SpaceError(f"{name}: integer bounds required, got [{lower}, {upper}]")
        super().__init__(name, int(lower), int(upper), default=default, log=log, prior=prior)
        self.default = int(self.default)

    def validate(self, value: Any) -> bool:
        if isinstance(value, bool):
            return False
        if isinstance(value, (int, np.integer)):
            return self.lower <= int(value) <= self.upper
        if isinstance(value, (float, np.floating)) and float(value).is_integer():
            return self.lower <= int(value) <= self.upper
        return False

    def _beside(self, t: float) -> list[int]:
        return [v for v in range(math.ceil(t) - 1, math.floor(t) + 2) if self.lower <= v <= self.upper]

    def from_unit(self, u: float) -> int:
        v = self._unit_to_float(u)
        return int(min(self.upper, max(self.lower, round(v))))

    def from_unit_many(self, u: Sequence[float]) -> list[int]:
        v = np.clip(np.round(self._unit_to_float_many(u)), self.lower, self.upper)
        return [int(x) for x in v]

    def neighbor(self, value: Any, rng: np.random.Generator, scale: float = 0.1) -> int:
        candidate = super().neighbor(value, rng, scale)
        if candidate == value:
            # Always move somewhere for discrete domains so local search
            # cannot stall on a plateau created by rounding.
            candidate = int(value) + (1 if rng.random() < 0.5 else -1)
            candidate = min(self.upper, max(self.lower, candidate))
        return int(candidate)

    def neighbor_many(
        self,
        value: Any,
        rng: np.random.Generator,
        n: int,
        scale: float | np.ndarray = 0.1,
    ) -> list[int]:
        cands = np.asarray(super().neighbor_many(value, rng, n, scale))
        stalled = cands == int(value)
        if stalled.any():
            # Same plateau escape as the scalar path, drawn as one batch.
            step = np.where(rng.random(int(stalled.sum())) < 0.5, 1, -1)
            cands[stalled] = np.clip(int(value) + step, self.lower, self.upper)
        return [int(c) for c in cands]


class CategoricalParameter(Parameter):
    """An unordered discrete knob, e.g. ``innodb_flush_method``.

    The unit-interval encoding divides ``[0, 1]`` into equal bins, one per
    choice. This imposes an artificial order — the tutorial's
    "Discrete / Hybrid Optimization" slide discusses why; use one-hot
    encoding (:mod:`repro.space.encoding`) or a random-forest surrogate to
    avoid it.
    """

    def __init__(
        self,
        name: str,
        choices: Sequence[Hashable],
        default: Hashable | None = None,
        weights: Sequence[float] | None = None,
    ) -> None:
        choices = list(choices)
        if len(choices) < 2:
            raise SpaceError(f"{name}: need at least 2 choices, got {choices!r}")
        if len(set(choices)) != len(choices):
            raise SpaceError(f"{name}: duplicate choices in {choices!r}")
        self.choices = choices
        self._index = {c: i for i, c in enumerate(choices)}
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if w.shape != (len(choices),) or np.any(w < 0) or not 0 < w.sum() < np.inf:
                raise SpaceError(f"{name}: weights must be {len(choices)} non-negative finite values")
            self.weights = w / w.sum()
        else:
            self.weights = np.full(len(choices), 1.0 / len(choices))
        super().__init__(name, choices[0] if default is None else default)
        self.check(self.default)

    @property
    def n_choices(self) -> int:
        return len(self.choices)

    def validate(self, value: Any) -> bool:
        try:
            return value in self._index
        except TypeError:
            return False

    def witnesses(self, operands: Iterable[Any]) -> list[Any]:
        return list(self.choices)

    def index_of(self, value: Any) -> int:
        self.check(value)
        return self._index[value]

    def sample(self, rng: np.random.Generator) -> Any:
        return self.choices[int(rng.choice(len(self.choices), p=self.weights))]

    def sample_many(self, rng: np.random.Generator, n: int) -> list[Any]:
        idx = rng.choice(len(self.choices), size=int(n), p=self.weights)
        return [self.choices[int(i)] for i in idx]

    def to_unit(self, value: Any) -> float:
        i = self.index_of(value)
        return (i + 0.5) / self.n_choices

    def to_unit_many(self, values: Sequence[Any]) -> np.ndarray:
        idx = np.array([self.index_of(v) for v in values], dtype=float)
        return (idx + 0.5) / self.n_choices

    def from_unit(self, u: float) -> Any:
        u = min(1.0, max(0.0, float(u)))
        i = min(self.n_choices - 1, int(u * self.n_choices))
        return self.choices[i]

    def neighbor(self, value: Any, rng: np.random.Generator, scale: float = 0.1) -> Any:
        others = [c for c in self.choices if c != value]
        return others[int(rng.integers(len(others)))]

    def neighbor_many(
        self,
        value: Any,
        rng: np.random.Generator,
        n: int,
        scale: float | np.ndarray = 0.1,
    ) -> list[Any]:
        others = [c for c in self.choices if c != value]
        idx = rng.integers(len(others), size=int(n))
        return [others[int(i)] for i in idx]


class BooleanParameter(CategoricalParameter):
    """An on/off knob, e.g. PostgreSQL ``jit``."""

    def __init__(self, name: str, default: bool = False) -> None:
        super().__init__(name, [False, True], default=bool(default))

    def validate(self, value: Any) -> bool:
        return isinstance(value, (bool, np.bool_))
