"""Configuration space and configuration objects.

A :class:`ConfigurationSpace` is the set of tunable knobs of a system
together with conditional-activation rules and hard constraints — the
domain 𝒳 of the tutorial's optimization problem ``x* = argmin_{x∈𝒳} f(x)``.

A :class:`Configuration` is one point in that space: a frozen mapping from
knob name to value, with inactive conditional knobs pinned to their defaults.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import (
    ConstraintViolationError,
    DuplicateParameterError,
    SamplingError,
    SpaceError,
    UnknownParameterError,
)
from .conditions import Condition
from .constraints import Constraint, all_satisfied
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
        self._constraints: list[Constraint] = []
        self._rng = np.random.default_rng(seed)
        self._index: dict[str, int] | None = None
        # Activation pattern -> the one frozenset every configuration shares.
        self._patterns: dict[frozenset[str], frozenset[str]] = {}

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
        self._conditions.setdefault(condition.child, []).append(condition)
        self._check_acyclic()
        return condition

    def add_constraint(self, constraint: Constraint) -> Constraint:
        self._constraints.append(constraint)
        return constraint

    def _check_acyclic(self) -> None:
        # DFS over child -> parent edges; a cycle would make activation
        # resolution ill-defined.
        edges = {child: [c.parent for c in conds] for child, conds in self._conditions.items()}
        state: dict[str, int] = {}

        def visit(node: str) -> None:
            if state.get(node) == 1:
                raise SpaceError(f"condition cycle involving parameter {node!r}")
            if state.get(node) == 2:
                return
            state[node] = 1
            for parent in edges.get(node, ()):
                visit(parent)
            state[node] = 2

        for child in edges:
            visit(child)

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
    def _interned(self, active: frozenset[str]) -> frozenset[str]:
        return self._patterns.setdefault(active, active)

    def active_names(self, values: Mapping[str, Any]) -> frozenset[str]:
        """Resolve which knobs are active under conditional rules.

        Unconditioned knobs are always active; conditioned knobs are active
        iff all their conditions hold, evaluated against active parents only.
        Resolution iterates to a fixpoint (condition graphs are acyclic).
        Equal activation patterns return the same ``frozenset`` object: a
        space has few patterns and every configuration holds one of them.
        """
        active = {name for name in self._params if name not in self._conditions}
        for _ in range(len(self._conditions) + 1):
            visible = {n: values.get(n, self._params[n].default) for n in active}
            newly = {
                child
                for child, conds in self._conditions.items()
                if child not in active and all(c.parent in active and c.is_active(visible) for c in conds)
            }
            if not newly:
                break
            active |= newly
        return self._interned(frozenset(active))

    def activation_patterns(self) -> list[frozenset[str]]:
        """Every activation pattern a configuration can hold, fewest knobs first. Each
        distinct condition (kind, parent, operand) is taken as free to hold or not,
        so the list may hold a pattern no values produce, never miss one they do."""
        key = lambda c: (type(c).__name__, c.parent, repr({k: v for k, v in vars(c).items() if k != "child"}))  # noqa: E731
        keys, patterns = list(dict.fromkeys(map(key, self.conditions))), set()
        for outcome in itertools.product((False, True), repeat=len(keys)):
            holds, active = dict(zip(keys, outcome)), {n for n in self._params if n not in self._conditions}
            for _ in self._conditions:
                active |= {n for n, conds in self._conditions.items() if all(c.parent in active and holds[key(c)] for c in conds)}
            patterns.add(frozenset(active))
        return sorted(patterns, key=lambda p: (len(p), sorted(p)))

    # -- construction of configurations --------------------------------------
    def make(self, values: Mapping[str, Any] | None = None, check_constraints: bool = True) -> Configuration:
        """Build a configuration, filling gaps with defaults and validating.

        Inactive conditional knobs are silently reset to their defaults;
        active knobs must carry valid values.
        """
        values = dict(values or {})
        for extra in set(values) - set(self._params):
            raise UnknownParameterError(extra)
        full = {name: values.get(name, p.default) for name, p in self._params.items()}
        active = self.active_names(full)
        resolved = {
            name: (full[name] if name in active else self._params[name].default)
            for name in self._params
        }
        for name in active:
            self._params[name].check(resolved[name])
        if check_constraints and not all_satisfied(self._constraints, resolved):
            raise ConstraintViolationError(f"configuration violates constraints: {resolved}")
        return Configuration(self, tuple(resolved.values()), active)

    def default_configuration(self) -> Configuration:
        return self.make({})

    def is_feasible(self, values: Mapping[str, Any]) -> bool:
        """True iff the value mapping satisfies every hard constraint."""
        return all_satisfied(self._constraints, values)

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
        column by column (:meth:`_resolve`); rows that violate a constraint
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
            resolved, patterns, ok = self._resolve(drawn, batch)
            keep = np.flatnonzero(ok).tolist()
            for column, values in zip(columns, resolved):
                column.extend(values if len(keep) == batch else [values[i] for i in keep])
            active.extend(patterns if len(keep) == batch else [patterns[i] for i in keep])
        return ConfigurationPool(self, columns, active)

    def _resolve(
        self, columns: list[list[Any]], n: int
    ) -> tuple[list[list[Any]], list[frozenset[str]], np.ndarray]:
        """Resolve ``n`` rows held as columns (one value list per knob, in
        space order) the way :meth:`make` resolves one row: activation comes
        from the rows' values, an inactive knob is reset to its default, and
        the constraints are checked on the resolved values
        (:meth:`Constraint.satisfied_many`). Returns the resolved columns,
        each row's interned activation pattern and the feasibility mask.
        Drawn values are in-domain by construction, so none is re-validated.
        """
        position = self._key_index()
        # Conditioned knob -> rows where it is active, parents first: a child
        # is active iff every condition's parent is and the condition holds,
        # and a condition sees only the rows the earlier ones kept (``all``).
        held: dict[str, np.ndarray] = {}
        pending = list(self._conditions)
        while pending:
            child = next(c for c in pending if all(cond.parent not in pending for cond in self._conditions[c]))
            rows = np.ones(n, dtype=bool)
            for cond in self._conditions[child]:
                if cond.parent in held:
                    rows &= held[cond.parent]
                values, marked = columns[position[cond.parent]], np.flatnonzero(rows)
                rows = np.zeros(n, dtype=bool)
                rows[marked] = [bool(cond.evaluate(values[i])) for i in marked.tolist()]
            held[child] = rows
            pending.remove(child)
        resolved = list(columns)
        for child, rows in held.items():
            if not rows.all():
                j, default = position[child], self._params[child].default
                resolved[j] = [v if on else default for v, on in zip(columns[j], rows.tolist())]
        if held:
            names = list(held)
            codes, inverse = np.unique(np.stack(list(held.values()), axis=1), axis=0, return_inverse=True)
            always = frozenset(self._params).difference(self._conditions)
            table = [self._interned(always.union(itertools.compress(names, code))) for code in codes.tolist()]
            patterns = [table[i] for i in inverse.reshape(-1).tolist()]
        else:
            patterns = [self._interned(frozenset(self._params))] * n
        ok = np.ones(n, dtype=bool)
        if self._constraints:
            named = dict(zip(self._params, resolved))
            for constraint in self._constraints:
                ok = constraint.satisfied_many(named, ok)
        return resolved, patterns, ok

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
        (:meth:`_resolve`). A row that violates a constraint is ``config``
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
        resolved, patterns, ok = self._resolve(columns, n)
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
        configs = []
        for combo in itertools.product(*axes):
            try:
                configs.append(self.make(dict(zip(self.names, combo))))
            except ConstraintViolationError:
                continue
        # Conditional knobs collapse distinct combos onto the same resolved
        # configuration; deduplicate while preserving order.
        unique: dict[Configuration, None] = dict.fromkeys(configs)
        return list(unique)

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
