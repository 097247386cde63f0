"""Configuration space and configuration objects.

A :class:`ConfigurationSpace` is the set of tunable knobs of a system
together with conditional-activation rules and hard constraints — the
domain 𝒳 of the tutorial's optimization problem ``x* = argmin_{x∈𝒳} f(x)``.

A :class:`Configuration` is one point in that space: a frozen mapping from
knob name to value, with inactive conditional knobs pinned to their defaults.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import (
    ConstraintViolationError,
    DuplicateParameterError,
    SamplingError,
    SpaceError,
    UnknownParameterError,
)
from .conditions import Condition
from .constraints import Constraint
from .params import CategoricalParameter, Parameter
from .priors import Prior

__all__ = ["Configuration", "ConfigurationPool", "ConfigurationSpace"]


class Configuration(Mapping[str, Any]):
    """An immutable assignment of values to every knob in a space.

    Inactive conditional knobs are present but pinned at their defaults so a
    configuration can always be applied verbatim to the target system.
    ``active`` records which knobs the optimizer actually controls here.

    The values are a tuple aligned with the space's key index (name →
    position, in the order knobs were added), which the space builds once
    and every configuration shares;
    ``active`` is the space's one interned set for that activation pattern.
    A configuration therefore carries no per-instance dict or set, and it
    keeps the index it was made with, so a later ``space.add()`` leaves it
    intact.
    """

    __slots__ = ("_space", "_index", "_values", "_active", "_hash")

    def __init__(self, space: "ConfigurationSpace", values: tuple[Any, ...], active: frozenset[str]) -> None:
        self._space = space
        self._index = space._key_index()
        self._values = values
        self._active = active
        self._hash: int | None = None

    @property
    def space(self) -> "ConfigurationSpace":
        return self._space

    @property
    def active(self) -> frozenset[str]:
        """Names of knobs whose values are under the optimizer's control."""
        return self._active

    def __getitem__(self, name: str) -> Any:
        return self._values[self._index[name]]

    def get(self, name: str, default: Any = None) -> Any:
        position = self._index.get(name)
        return default if position is None else self._values[position]

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        if self._index is other._index:
            return self._values == other._values
        return self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted((k, repr(v)) for k, v in zip(self._index, self._values))))
        return self._hash

    def as_dict(self) -> dict[str, Any]:
        """A mutable copy of the full value mapping."""
        return dict(zip(self._index, self._values))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v!r}" for k, v in zip(self._index, self._values))
        return f"Configuration({inner})"


class ConfigurationPool(Sequence[Configuration]):
    """Configurations of one space held as per-knob columns of resolved values.

    What :meth:`ConfigurationSpace.sample_many` and
    :meth:`~ConfigurationSpace.neighbor_many` return: a read-only sequence
    whose row ``k`` becomes a :class:`Configuration` when first indexed (and
    is the same object after), so a candidate pool is drawn, encoded and
    scored without building one per row (an encoder reads :meth:`column`).
    Pools of the same space concatenate with ``+``; take ``list(pool)`` for
    a mutable copy.
    """

    __slots__ = ("space", "_columns", "_active", "_built")

    def __init__(
        self,
        space: "ConfigurationSpace",
        columns: list[list[Any]],
        active: list[frozenset[str]],
        built: dict[int, Configuration] | None = None,
    ) -> None:
        self.space = space
        self._columns = columns  # one list per knob, in space order
        self._active = active  # each row's activation pattern
        self._built = built if built is not None else {}  # row -> its configuration, once indexed

    @classmethod
    def of(cls, space: "ConfigurationSpace", configs: Sequence[Configuration]) -> "ConfigurationPool":
        """A pool of existing configurations of ``space``; indexing returns them."""
        columns = [[c[name] for c in configs] for name in space.names]
        return cls(space, columns, [c.active for c in configs], dict(enumerate(configs)))

    def __len__(self) -> int:
        return len(self._active)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        k = range(len(self._active))[k]  # IndexError past the end, as a list
        config = self._built.get(k)
        if config is None:
            values = tuple(column[k] for column in self._columns)
            config = self._built[k] = Configuration(self.space, values, self._active[k])
        return config

    def column(self, name: str) -> list[Any]:
        """Knob ``name``'s value in every row (not to be mutated)."""
        return self._columns[self.space._key_index()[name]]

    def patterns(self) -> list[frozenset[str]]:
        """Every row's activation pattern, the interned set its configuration's
        ``active`` is (not to be mutated)."""
        return self._active

    def __add__(self, other: object) -> "ConfigurationPool":
        if not isinstance(other, ConfigurationPool) or other.space is not self.space:
            return NotImplemented
        columns = [a + b for a, b in zip(self._columns, other._columns)]
        built = {**self._built, **{k + len(self): c for k, c in other._built.items()}}
        return ConfigurationPool(self.space, columns, self._active + other._active, built)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]  # equal to a list, so unhashable like one

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConfigurationPool({self.space.name!r}, n={len(self)})"


class ConfigurationSpace:
    """The set of knobs of a system, with conditions, constraints, and priors.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.space import ConfigurationSpace, IntegerParameter, BooleanParameter
    >>> from repro.space import EqualsCondition
    >>> space = ConfigurationSpace("pg")
    >>> _ = space.add(BooleanParameter("jit", default=False))
    >>> _ = space.add(IntegerParameter("jit_above_cost", 0, 10**6, default=10**5))
    >>> space.add_condition(EqualsCondition("jit_above_cost", "jit", True))
    >>> cfg = space.make({"jit": False, "jit_above_cost": 5})
    >>> cfg["jit_above_cost"]  # inactive -> pinned to default
    100000
    """

    _MAX_SAMPLE_ATTEMPTS = 10_000

    def __init__(self, name: str = "space", seed: int | None = None) -> None:
        self.name = name
        self._params: dict[str, Parameter] = {}
        self._conditions: dict[str, list[Condition]] = {}
        self._order: list[str] = []  # the conditioned knobs, parents first
        self._constraints: list[Constraint] = []
        self._rng = np.random.default_rng(seed)
        self._index: dict[str, int] | None = None
        # Outcomes of the conditioned knobs (in ``_order``) -> the one
        # activation pattern every configuration with them shares.
        self._patterns: dict[tuple[bool, ...], frozenset[str]] = {}

    # -- construction ------------------------------------------------------
    def add(self, param: Parameter) -> Parameter:
        if param.name in self._params:
            raise DuplicateParameterError(param.name)
        self._params[param.name] = param
        self._index = None
        self._patterns = {}
        return param

    def add_condition(self, condition: Condition) -> Condition:
        for ref in (condition.child, condition.parent):
            if ref not in self._params:
                raise UnknownParameterError(ref)
        if condition.child == condition.parent:
            raise SpaceError(f"parameter {condition.child!r} cannot condition itself")
        if condition.operands is not None:  # asked now as it is asked where it is judged
            self._answers(condition.parent, [condition])
        conditions = {**self._conditions, condition.child: [*self._conditions.get(condition.child, ()), condition]}
        self._order = self._parents_first(conditions)  # a refused condition leaves the space as it was
        self._conditions, self._patterns = conditions, {}
        return condition

    def add_constraint(self, constraint: Constraint) -> Constraint:
        self._constraints.append(constraint)
        return constraint

    @staticmethod
    def _parents_first(conditions: dict[str, list[Condition]]) -> list[str]:
        """The conditioned knobs, each after its conditioned parents; a cycle
        would leave activation ill-defined."""
        order, pending = [], list(conditions)
        while pending:
            child = next((c for c in pending if all(k.parent not in pending for k in conditions[c])), None)
            if child is None:
                raise SpaceError(f"condition cycle involving parameter {pending[0]!r}")
            order.append(child)
            pending.remove(child)
        return order

    # -- introspection -------------------------------------------------------
    @property
    def names(self) -> list[str]:
        return list(self._params)

    @property
    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    @property
    def conditions(self) -> list[Condition]:
        return [c for conds in self._conditions.values() for c in conds]

    @property
    def constraints(self) -> list[Constraint]:
        return list(self._constraints)

    @property
    def n_dims(self) -> int:
        return len(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Parameter:
        try:
            return self._params[name]
        except KeyError:
            raise UnknownParameterError(name) from None

    def _key_index(self) -> dict[str, int]:
        """Knob name → position, built once and shared by every configuration
        made until the next :meth:`add` (which builds a new one)."""
        index = self._index
        if index is None:
            index = self._index = {name: i for i, name in enumerate(self._params)}
        return index

    # -- activation ---------------------------------------------------------
    def _activation(self, n: int, holds: Callable[[Condition, list[int]], list[Any]]) -> dict[str, list[bool]]:
        """The one activation rule: conditioned knob → whether it is active in
        each of ``n`` rows. Unconditioned knobs are always active; a
        conditioned knob is active in a row iff, for each of its conditions in
        turn, the parent is active there and ``holds(condition, rows)`` is true
        for the row. It is asked only about the rows still standing, parents
        first, so no condition sees a row whose parent is inactive or that an
        earlier condition of the same knob settled.
        """
        held: dict[str, list[bool]] = {}
        for child in self._order:
            rows: list[int] | range = range(n)
            for cond in self._conditions[child]:
                parent = held.get(cond.parent)
                if parent is not None:
                    rows = [i for i in rows if parent[i]]
                rows = list(itertools.compress(rows, holds(cond, rows)))
            on = [False] * n
            for i in rows:
                on[i] = True
            held[child] = on
        return held

    def _patterns_of(self, held: dict[str, list[bool]], n: int) -> list[frozenset[str]]:
        """Each row's activation pattern, looked up by its conditioned knobs'
        outcomes: a space has few patterns, and every configuration with one
        holds the same frozenset."""
        keys = list(zip(*held.values())) if held else [()] * n
        for key in set(keys).difference(self._patterns):
            self._patterns[key] = frozenset(self._params).difference(itertools.compress(held, [not on for on in key]))
        return [self._patterns[key] for key in keys]

    def _activate(self, columns: list[list[Any]], n: int) -> tuple[list[list[Any]], list[frozenset[str]]]:
        """Resolve ``n`` rows held as columns (one value list per knob, in
        space order): activation comes from the rows' values, and an inactive
        knob is reset to its default. Returns the resolved columns and each
        row's interned activation pattern. No value is checked here: drawn
        and lattice values are in-domain by construction (outside input goes
        through :meth:`make`)."""
        position = self._key_index()
        held = self._activation(
            n, lambda cond, rows: [cond.evaluate(columns[position[cond.parent]][i]) for i in rows]
        )
        resolved = list(columns)
        for child, on in held.items():
            if not all(on):
                j, default = position[child], self._params[child].default
                resolved[j] = [v if active else default for v, active in zip(columns[j], on)]
        return resolved, self._patterns_of(held, n)

    def _feasible(self, columns: Mapping[str, Sequence[Any]], n: int) -> np.ndarray:
        """Which of ``n`` rows (knob → one value per row) every constraint
        admits (:meth:`Constraint.satisfied_many`); each constraint sees only
        the rows the earlier ones kept, and none is asked once no row is left."""
        ok = np.ones(n, dtype=bool)
        for constraint in self._constraints:
            if not ok.any():
                break
            ok = constraint.satisfied_many(columns, ok)
        return ok

    def _answers(self, parent: str, conds: list[Condition]) -> list[tuple[bool, ...]]:
        """The distinct vectors ``conds`` (conditions on ``parent`` that name
        their operands) answer on the parent's witness values for those
        operands (:meth:`Parameter.witnesses`); a condition that cannot answer
        one is refused."""
        witnesses = self._params[parent].witnesses([t for cond in conds for t in cond.operands])
        try:
            return list(dict.fromkeys(tuple(bool(cond.evaluate(v)) for cond in conds) for v in witnesses))
        except (TypeError, ValueError) as err:
            raise SpaceError(f"{' and '.join(map(repr, conds))} cannot answer every value of {parent!r}: {err}") from err

    def condition_outcomes(self) -> list[tuple[list[Condition], list[tuple[bool, ...]]]]:
        """What the conditions can answer together, as independent factors
        ``(conditions, outcome vectors)``: per parent, what its conditions
        answer on its witness values (:meth:`_answers`); per opaque condition
        (a callable, never called here; alike ones share one), hold or not.
        Parent values give exactly the products of one vector per factor."""
        by_parent: dict[str, list[Condition]] = {}
        opaque: dict[str, list[Condition]] = {}
        for cond in self.conditions:
            if cond.operands is None:
                key = repr((type(cond).__name__, {k: v for k, v in vars(cond).items() if k != "child"}))
                opaque.setdefault(key, []).append(cond)
            else:
                by_parent.setdefault(cond.parent, []).append(cond)
        factors = [(conds, [(False,) * len(conds), (True,) * len(conds)]) for conds in opaque.values()]
        return factors + [(conds, self._answers(parent, conds)) for parent, conds in by_parent.items()]

    def activation_patterns(self) -> list[frozenset[str]]:
        """Every activation pattern some configuration holds, and no other,
        fewest knobs first: the activation rule run on one row per combination
        of the conditions' joint outcomes (:meth:`condition_outcomes`)."""
        factors = self.condition_outcomes()
        rows = list(itertools.product(*(vectors for _, vectors in factors)))
        column = {cond: [row[f][j] for row in rows] for f, (conds, _) in enumerate(factors) for j, cond in enumerate(conds)}
        held = self._activation(len(rows), lambda cond, kept: [column[cond][i] for i in kept])
        return sorted(set(self._patterns_of(held, len(rows))), key=lambda p: (len(p), sorted(p)))

    # -- construction of configurations --------------------------------------
    def make(self, values: Mapping[str, Any] | None = None, check_constraints: bool = True) -> Configuration:
        """Build a configuration, filling gaps with defaults and validating.

        Inactive conditional knobs are silently reset to their defaults;
        active knobs must carry valid values. Outside input is checked in
        this order: unknown names, activation (a parent's value before any
        condition reads it), each active value, then the constraints (when
        asked), so no condition or constraint reads an invalid value.
        """
        values = values or {}
        for extra in set(values) - set(self._params):
            raise UnknownParameterError(extra)
        position, raw = self._key_index(), [values.get(name, p.default) for name, p in self._params.items()]
        held = self._activation(1, lambda cond, rows: [cond.evaluate(self[cond.parent].check(raw[position[cond.parent]]))
                                                       for _ in rows])
        (active,) = self._patterns_of(held, 1)
        row = tuple(value if name in active else p.default for (name, p), value in zip(self._params.items(), raw))
        for (name, p), value in zip(self._params.items(), row):
            if name in active:
                p.check(value)
        if check_constraints and not self._feasible({name: [value] for name, value in zip(self._params, row)}, 1)[0]:
            raise ConstraintViolationError(f"configuration violates constraints: {dict(zip(self._params, row))}")
        return Configuration(self, row, active)

    def default_configuration(self) -> Configuration:
        return self.make({})

    def is_feasible(self, values: Mapping[str, Any]) -> bool:
        """True iff the value mapping satisfies every hard constraint (one
        that reads a knob the mapping lacks does not apply)."""
        return bool(self._feasible({name: [value] for name, value in values.items()}, 1)[0])

    # -- sampling -------------------------------------------------------------
    def sample(self, rng: np.random.Generator | None = None) -> Configuration:
        """Draw one feasible configuration (rejection sampling on constraints)."""
        rng = rng if rng is not None else self._rng
        for _ in range(self._MAX_SAMPLE_ATTEMPTS):
            raw = {name: p.sample(rng) for name, p in self._params.items()}
            try:
                return self.make(raw)
            except ConstraintViolationError:
                continue
        raise SamplingError(
            f"could not sample a feasible configuration from {self.name!r} in "
            f"{self._MAX_SAMPLE_ATTEMPTS} attempts; constraints may be unsatisfiable"
        )

    def sample_many(self, n: int, rng: np.random.Generator | None = None) -> ConfigurationPool:
        """Draw ``n`` feasible configurations with one vectorized pass per knob.

        Every parameter column is drawn in a single batched call
        (:meth:`Parameter.sample_many`, knobs in space order) and resolved
        column by column (:meth:`_activate`, :meth:`_feasible`); rows that violate a constraint
        are redrawn in rounds of the missing count, within the attempt budget
        of :meth:`sample`. The rows stay columns: see :class:`ConfigurationPool`.
        """
        rng = rng if rng is not None else self._rng
        n = int(n)
        columns: list[list[Any]] = [[] for _ in self._params]
        active: list[frozenset[str]] = []
        attempts = 0
        while len(active) < n:
            batch = n - len(active)
            if attempts + batch > self._MAX_SAMPLE_ATTEMPTS:
                raise SamplingError(
                    f"could not sample {n} feasible configurations from "
                    f"{self.name!r} in {self._MAX_SAMPLE_ATTEMPTS} attempts; "
                    "constraints may be unsatisfiable"
                )
            attempts += batch
            drawn = [p.sample_many(rng, batch) for p in self._params.values()]
            resolved, patterns = self._activate(drawn, batch)
            ok = self._feasible(dict(zip(self._params, resolved)), batch)
            keep = np.flatnonzero(ok).tolist()
            for column, values in zip(columns, resolved):
                column.extend(values if len(keep) == batch else [values[i] for i in keep])
            active.extend(patterns if len(keep) == batch else [patterns[i] for i in keep])
        return ConfigurationPool(self, columns, active)

    # -- encodings --------------------------------------------------------------
    def to_unit_array(self, config: Mapping[str, Any]) -> np.ndarray:
        """Encode a configuration as a unit-cube vector, one dim per knob."""
        return np.array(
            [p.to_unit(config.get(name, p.default)) for name, p in self._params.items()],
            dtype=float,
        )

    def from_unit_array(self, x: Sequence[float], check_constraints: bool = False) -> Configuration:
        """Decode a unit-cube vector into a configuration.

        Constraint checking is off by default: numerical optimizers produce
        candidate vectors first and filter feasibility second.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_dims,):
            raise SpaceError(f"expected a vector of length {self.n_dims}, got shape {x.shape}")
        values = {name: p.from_unit(float(u)) for (name, p), u in zip(self._params.items(), x)}
        return self.make(values, check_constraints=check_constraints)

    # -- local moves -------------------------------------------------------------
    def neighbor(
        self,
        config: Configuration,
        rng: np.random.Generator | None = None,
        scale: float = 0.1,
    ) -> Configuration:
        """Perturb one random active knob (annealing / GA mutation)."""
        rng = rng if rng is not None else self._rng
        values = config.as_dict()
        active = sorted(config.active)
        for _ in range(self._MAX_SAMPLE_ATTEMPTS // 100):
            candidate = dict(values)
            # One knob; drawn as an array because recorded trajectories pin this exact rng call.
            moved = rng.choice(active, size=min(1, len(active)), replace=False)
            for name in moved:
                candidate[name] = self._params[name].neighbor(candidate[name], rng, scale)
            try:
                return self.make(candidate)
            except ConstraintViolationError:
                continue
        return config

    def neighbor_many(
        self,
        config: Configuration,
        n: int,
        rng: np.random.Generator | None = None,
        scales: float | Sequence[float] = 0.1,
    ) -> ConfigurationPool:
        """Draw ``n`` single-knob perturbations of ``config`` in one pass.

        Each row moves one uniformly chosen active knob; ``scales`` may be a
        scalar or one step size per row (candidate generators mix tight and
        loose local moves this way). Knob draws are grouped so every
        parameter perturbs its rows with a single vectorized call, in sorted
        knob order, and the rows are resolved column by column
        (:meth:`_activate`, :meth:`_feasible`). A row that violates a constraint is ``config``
        itself, mirroring :meth:`neighbor`'s give-up behaviour without
        per-row retry loops.
        """
        rng = rng if rng is not None else self._rng
        n = max(int(n), 0)
        base = [config[name] for name in self._params]
        columns = [[value] * n for value in base]
        active = sorted(config.active)
        if not n or not active:
            return ConfigurationPool(self, columns, [config.active] * n)
        scale_rows = np.broadcast_to(np.asarray(scales, dtype=float), (n,))
        moved = rng.integers(len(active), size=n)
        position = self._key_index()
        for k, name in enumerate(active):
            rows = np.nonzero(moved == k)[0]
            if len(rows) == 0:
                continue
            column = columns[position[name]]
            values = self._params[name].neighbor_many(config[name], rng, len(rows), scale_rows[rows])
            for i, value in zip(rows.tolist(), values):
                column[i] = value
        resolved, patterns = self._activate(columns, n)
        ok = self._feasible(dict(zip(self._params, resolved)), n)
        for i in np.flatnonzero(~ok).tolist():
            for column, value in zip(resolved, base):
                column[i] = value
            patterns[i] = config.active
        return ConfigurationPool(self, resolved, patterns)

    # -- grids ----------------------------------------------------------------------
    def grid(self, points_per_dim: int = 5, max_points: int = 100_000) -> list[Configuration]:
        """Cartesian grid over all knobs (classic grid search).

        Numeric knobs get ``points_per_dim`` evenly spaced unit positions;
        categoricals enumerate all choices. Infeasible points are dropped.
        """
        axes: list[list[Any]] = []
        for p in self._params.values():
            if isinstance(p, CategoricalParameter):
                axes.append(list(p.choices))
            else:
                units = np.linspace(0.0, 1.0, points_per_dim)
                seen: list[Any] = []
                for u in units:
                    v = p.from_unit(float(u))
                    if v not in seen:
                        seen.append(v)
                axes.append(seen)
        total = 1
        for axis in axes:
            total *= len(axis)
            if total > max_points:
                raise SpaceError(
                    f"grid would have more than {max_points} points; "
                    "reduce points_per_dim or tune fewer knobs"
                )
        # The lattice is resolved as one batch of columns, as a drawn pool is.
        columns, patterns = self._activate([list(c) for c in zip(*itertools.product(*axes))], total)
        pool = ConfigurationPool(self, columns, patterns)
        feasible = np.flatnonzero(self._feasible(dict(zip(self._params, columns)), total)).tolist()
        # Conditional knobs collapse distinct combos onto the same resolved
        # configuration; deduplicate while preserving order.
        return list(dict.fromkeys(pool[k] for k in feasible))

    # -- derived spaces -------------------------------------------------------------
    def subspace(self, names: Sequence[str], name: str | None = None) -> "ConfigurationSpace":
        """A space over a subset of knobs (e.g. only the important ones).

        Conditions and constraints are kept when every knob they mention is
        included, otherwise dropped — the excluded knobs stay at defaults.
        """
        keep = set(names)
        for n in keep:
            if n not in self._params:
                raise UnknownParameterError(n)
        sub = ConfigurationSpace(name or f"{self.name}[{len(keep)} knobs]")
        for n, p in self._params.items():
            if n in keep:
                sub.add(p)
        for cond in self.conditions:
            if cond.child in keep and cond.parent in keep:
                sub.add_condition(cond)
        for con in self._constraints:
            mentioned = constraint_params(con)
            if mentioned is not None and mentioned <= keep:
                sub.add_constraint(con)
        return sub

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConfigurationSpace(name={self.name!r}, n_dims={self.n_dims})"


def constraint_params(constraint: Constraint) -> set[str] | None:
    """Best-effort extraction of the knob names a constraint mentions.

    Returns None for black-box constraints whose dependencies are unknown —
    subspacing drops those to stay safe.
    """
    from .constraints import LinearConstraint, RatioConstraint

    if isinstance(constraint, LinearConstraint):
        return set(constraint.coefficients)
    if isinstance(constraint, RatioConstraint):
        names = {constraint.numerator, constraint.denominator}
        if constraint.divisor:
            names.add(constraint.divisor)
        return names
    return None
