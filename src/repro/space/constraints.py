"""Hard constraints across multiple knobs.

The tutorial's "Constrained Optimization" slide gives the canonical example:
``innodb_buffer_pool_chunk_size <= innodb_buffer_pool_size /
innodb_buffer_pool_instances``. Constraints may be known closed forms
(:class:`LinearConstraint`, :class:`RatioConstraint`) or opaque
(:class:`CallableConstraint` — the black-box constraints SCBO targets).

A constraint answers for rows held as columns (:meth:`Constraint.satisfied_many`):
a closed form evaluates its arithmetic on whole columns, a callable asks its
predicate row by row. :class:`~repro.space.space.ConfigurationSpace` checks
one configuration (``make``, ``is_feasible``) and a pool of them through it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Constraint",
    "LinearConstraint",
    "RatioConstraint",
    "CallableConstraint",
]


class Constraint(ABC):
    """A hard feasibility predicate over configuration values."""

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__

    @abstractmethod
    def satisfied_many(self, columns: Mapping[str, Sequence[Any]], where: np.ndarray) -> np.ndarray:
        """Whether each row of ``columns`` (knob → one active-resolved value
        per row) that the boolean mask ``where`` marks is feasible; unmarked
        rows read False. A constraint that reads a knob ``columns`` lacks
        does not apply: its rows read as ``where`` marks them.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class LinearConstraint(Constraint):
    """``sum_i coef_i * values[param_i] <= bound`` over numeric knobs."""

    def __init__(
        self,
        coefficients: Mapping[str, float],
        bound: float,
        name: str = "",
    ) -> None:
        super().__init__(name or "linear")
        if not coefficients:
            raise ValueError("LinearConstraint needs at least one coefficient")
        self.coefficients = dict(coefficients)
        self.bound = float(bound)

    def satisfied_many(self, columns: Mapping[str, Sequence[Any]], where: np.ndarray) -> np.ndarray:
        total = np.zeros(len(where))
        for param, coef in self.coefficients.items():
            if param not in columns:
                return where.copy()
            total += coef * np.asarray(columns[param], dtype=float)
        return where & (total <= self.bound + 1e-12)


class RatioConstraint(Constraint):
    """``values[numerator] <= values[denominator] / values[divisor]``.

    Directly models the MySQL buffer-pool chunk-size rule from the tutorial.
    ``divisor`` may be omitted for a plain two-knob dominance constraint.
    """

    def __init__(
        self,
        numerator: str,
        denominator: str,
        divisor: str | None = None,
        name: str = "",
    ) -> None:
        super().__init__(name or "ratio")
        self.numerator = numerator
        self.denominator = denominator
        self.divisor = divisor

    def satisfied_many(self, columns: Mapping[str, Sequence[Any]], where: np.ndarray) -> np.ndarray:
        needed = [self.numerator, self.denominator] + ([self.divisor] if self.divisor else [])
        if any(p not in columns for p in needed):
            return where.copy()
        rhs = np.asarray(columns[self.denominator], dtype=float)
        ok = where.copy()
        if self.divisor is not None:
            div = np.asarray(columns[self.divisor], dtype=float)
            ok &= div != 0
            with np.errstate(divide="ignore", invalid="ignore"):
                rhs = rhs / div
        with np.errstate(invalid="ignore"):
            return ok & (np.asarray(columns[self.numerator], dtype=float) <= rhs + 1e-12)


class CallableConstraint(Constraint):
    """Black-box constraint: arbitrary predicate over the value mapping."""

    def __init__(self, predicate: Callable[[Mapping[str, Any]], bool], name: str = "") -> None:
        super().__init__(name or "callable")
        self.predicate = predicate

    def satisfied_many(self, columns: Mapping[str, Sequence[Any]], where: np.ndarray) -> np.ndarray:
        """The predicate of each marked row's mapping, built row by row, so it
        never sees a row an earlier constraint rejected. A row on which the
        predicate reads a knob ``columns`` lacks is one it does not apply to."""
        out = np.zeros(len(where), dtype=bool)
        names = list(columns)
        for i in np.flatnonzero(where).tolist():
            try:
                out[i] = bool(self.predicate(_Row({name: columns[name][i] for name in names})))
            except _Absent:
                out[i] = True
        return out


class _Absent(KeyError):
    """A predicate read a knob its row lacks."""


class _Row(dict):
    """One row's mapping for a predicate: reading a knob it lacks raises
    :class:`_Absent`, not a bare ``KeyError`` the predicate may raise itself."""

    def __missing__(self, name: str) -> Any:
        raise _Absent(name)
