"""Conditional parameter activation (structured search spaces).

The tutorial's "Constraining the Search Space — Structured Search Space
Optimization" slide: *if PostgreSQL ``jit=off``, ignore ``jit_above_cost``,
``jit_expressions``, etc.* A :class:`Condition` makes a child parameter
active only when a predicate over its parent's value holds; inactive
parameters are pinned to their defaults and excluded from search.

A condition only answers :meth:`Condition.evaluate` for one parent value.
Where it applies — the parent must itself be active, and a child with several
conditions needs them all — is the one activation rule of
:class:`~repro.space.space.ConfigurationSpace`, which every configuration,
pool and grid of the space is resolved through.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Hashable, Sequence

__all__ = [
    "Condition",
    "EqualsCondition",
    "InCondition",
    "GreaterThanCondition",
    "LessThanCondition",
    "CallableCondition",
]


class Condition(ABC):
    """Activates ``child`` only when the parent's value satisfies a predicate."""

    def __init__(self, child: str, parent: str) -> None:
        self.child = child
        self.parent = parent

    @abstractmethod
    def evaluate(self, parent_value: Any) -> bool:
        """True iff the child is active given the parent's value."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(child={self.child!r}, parent={self.parent!r})"


class EqualsCondition(Condition):
    """Child active iff ``parent == value`` (e.g. ``jit == True``)."""

    def __init__(self, child: str, parent: str, value: Any) -> None:
        super().__init__(child, parent)
        self.value = value

    def evaluate(self, parent_value: Any) -> bool:
        return parent_value == self.value


class InCondition(Condition):
    """Child active iff the parent's value is one of ``values``."""

    def __init__(self, child: str, parent: str, values: Sequence[Hashable]) -> None:
        super().__init__(child, parent)
        self.values = set(values)

    def evaluate(self, parent_value: Any) -> bool:
        try:
            return parent_value in self.values
        except TypeError:
            return False


class GreaterThanCondition(Condition):
    """Child active iff ``parent > threshold``."""

    def __init__(self, child: str, parent: str, threshold: float) -> None:
        super().__init__(child, parent)
        self.threshold = threshold

    def evaluate(self, parent_value: Any) -> bool:
        return parent_value > self.threshold


class LessThanCondition(Condition):
    """Child active iff ``parent < threshold``."""

    def __init__(self, child: str, parent: str, threshold: float) -> None:
        super().__init__(child, parent)
        self.threshold = threshold

    def evaluate(self, parent_value: Any) -> bool:
        return parent_value < self.threshold


class CallableCondition(Condition):
    """Child active iff ``predicate(parent_value)`` is truthy."""

    def __init__(self, child: str, parent: str, predicate: Callable[[Any], bool]) -> None:
        super().__init__(child, parent)
        self.predicate = predicate

    def evaluate(self, parent_value: Any) -> bool:
        return bool(self.predicate(parent_value))
