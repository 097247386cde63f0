"""Prong 1: the ConfigurationSpace linter.

A rule engine over :class:`~repro.space.ConfigurationSpace` objects that
finds the defects the paper's challenge list says tuners silently pay for
at runtime: unsatisfiable conditions, dead parameters the optimizer wastes
dimensions on, contradictory or vacuous constraints that turn rejection
sampling into an infinite loop, priors with no mass inside the parameter's
range, non-serialisable members that a service session will silently lose
across a process boundary, and lookalike names.

It judges legal spaces only. What a space cannot be (duplicate names,
inverted or log-over-non-positive bounds, self, unknown-parent or cyclic
conditions, malformed wire descriptions) is refused where the space is
built: by the parameter constructors, :meth:`ConfigurationSpace.add` /
:meth:`~ConfigurationSpace.add_condition`, and
:func:`~repro.space.serialize.space_from_dict`.

Entry point: :func:`lint_space` → :class:`LintReport`. Severity
semantics and the rule catalog live in ``docs/static-analysis.md``;
``SessionManager.create(strict=True)`` rejects any space whose report
carries an ERROR finding.

The analysis is purely static — no sampling, no evaluator calls. Condition
satisfiability is decided analytically per condition type (thresholds vs
bounds, pins vs domains) and jointly per (child, parent) group under the
space's activation rule (``ConfigurationSpace._activation``: a child is
active iff its parent is and every one of its conditions holds); deadness
then propagates through the activation DAG to a fixpoint.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

import numpy as np

from ..space import ConfigurationSpace
from ..space.conditions import (
    CallableCondition,
    Condition,
    EqualsCondition,
    GreaterThanCondition,
    InCondition,
    LessThanCondition,
)
from ..space.constraints import LinearConstraint, RatioConstraint
from ..space.params import (
    CategoricalParameter,
    FloatParameter,
    IntegerParameter,
    Parameter,
    _NumericParameter,
)
from ..space.priors import UniformPrior
from ..space.space import constraint_params
from ..exceptions import ConstraintViolationError, SpaceError
from .findings import Finding, LintReport, Severity

__all__ = ["lint_space", "SPACE_RULES"]

#: The rule catalog: id -> (severity, one-line description), the one source
#: of a rule's severity; ``docs/static-analysis.md`` tabulates the same ids.
SPACE_RULES: dict[str, tuple[Severity, str]] = {
    "SP102": (Severity.WARNING, "parameter names differ only by case/word separators"),
    "SP103": (Severity.ERROR, "space has no parameters"),
    "SP201": (Severity.ERROR, "condition can never hold for any parent value"),
    "SP202": (Severity.WARNING, "condition holds for every parent value (redundant)"),
    "SP203": (Severity.ERROR, "parameter can never become active (dead region)"),
    "SP301": (Severity.ERROR, "constraint excludes every point in the space"),
    "SP302": (Severity.WARNING, "constraint holds everywhere (redundant)"),
    "SP303": (Severity.WARNING, "constraint references an unknown parameter (never applies)"),
    "SP304": (Severity.ERROR, "constraint applies arithmetic to a non-numeric parameter"),
    "SP305": (Severity.WARNING, "duplicate constraint"),
    "SP306": (Severity.ERROR, "constraints contradict each other"),
    "SP307": (Severity.ERROR, "default configuration is infeasible"),
    "SP401": (Severity.WARNING, "condition holds a Python callable and cannot be serialised"),
    "SP402": (Severity.WARNING, "constraint cannot be serialised (dropped in service sessions)"),
    "SP501": (Severity.ERROR, "prior has no mass inside the parameter's range"),
    "SP502": (Severity.WARNING, "prior collapses onto a single achievable value"),
}


def _finding(rule: str, subject: str, message: str, hint: str = "") -> Finding:
    severity, _ = SPACE_RULES[rule]
    return Finding(rule=rule, severity=severity, subject=subject, message=message, hint=hint)


# -- condition satisfiability --------------------------------------------------

def _condition_truth(cond: Condition, parent: Parameter) -> bool | None:
    """Decide a single condition over the parent's whole domain.

    Returns ``True`` if it holds for every parent value, ``False`` if it can
    never hold, ``None`` if it is genuinely value-dependent (the healthy
    case) or undecidable (callable predicates on unbounded domains).
    """
    if isinstance(parent, CategoricalParameter):
        try:
            truths = [bool(cond.evaluate(c)) for c in parent.choices]
        except Exception:
            return None  # predicate crashed on a choice: undecidable here
        if not any(truths):
            return False
        if all(truths):
            return True
        return None
    if isinstance(parent, _NumericParameter):
        lo, hi = parent.lower, parent.upper
        if isinstance(cond, EqualsCondition):
            return None if parent.validate(cond.value) else False
        if isinstance(cond, InCondition):
            valid = [v for v in cond.values if parent.validate(v)]
            if not valid:
                return False
            return None
        if isinstance(cond, GreaterThanCondition):
            if cond.threshold >= hi:
                return False
            if cond.threshold < lo:
                return True
            return None
        if isinstance(cond, LessThanCondition):
            if cond.threshold <= lo:
                return False
            if cond.threshold > hi:
                return True
            return None
    return None  # callable condition on a numeric parent: undecidable


def _joint_feasible(conds: Sequence[Condition], parent: Parameter) -> bool | None:
    """Can ALL of ``conds`` (sharing one parent) hold simultaneously?

    ``None`` means undecidable (a callable predicate participates).
    """
    if any(isinstance(c, CallableCondition) for c in conds):
        return None
    if isinstance(parent, CategoricalParameter):
        try:
            return any(all(c.evaluate(choice) for c in conds) for choice in parent.choices)
        except Exception:
            return None
    if not isinstance(parent, _NumericParameter):
        return None
    # Numeric parent: intersect pins (Equals/In) with strict threshold bounds.
    pins: list[set[float]] = []
    glo: float | None = None  # v > glo
    ghi: float | None = None  # v < ghi
    for c in conds:
        if isinstance(c, EqualsCondition):
            pins.append({c.value} if parent.validate(c.value) else set())
        elif isinstance(c, InCondition):
            pins.append({v for v in c.values if parent.validate(v)})
        elif isinstance(c, GreaterThanCondition):
            glo = c.threshold if glo is None else max(glo, c.threshold)
        elif isinstance(c, LessThanCondition):
            ghi = c.threshold if ghi is None else min(ghi, c.threshold)
    if pins:
        candidates = set.intersection(*pins) if pins else set()
        return any(
            (glo is None or v > glo) and (ghi is None or v < ghi) for v in candidates
        )
    lo, hi = parent.lower, parent.upper
    if isinstance(parent, IntegerParameter):
        lo_int = int(lo) if glo is None else max(int(lo), math.floor(glo) + 1)
        hi_int = int(hi) if ghi is None else min(int(hi), math.ceil(ghi) - 1)
        return lo_int <= hi_int
    eff_lo = lo if glo is None else max(lo, glo)
    eff_hi = hi if ghi is None else min(hi, ghi)
    if eff_lo > eff_hi:
        return False
    if eff_lo == eff_hi:
        # Single point: only reachable if both ends are closed (no threshold
        # bound landed exactly there).
        open_lo = glo is not None and glo >= lo
        open_hi = ghi is not None and ghi <= hi
        return not (open_lo or open_hi)
    return True


def _describe_condition(cond: Condition) -> str:
    if isinstance(cond, EqualsCondition):
        return f"{cond.parent} == {cond.value!r}"
    if isinstance(cond, InCondition):
        return f"{cond.parent} in {sorted(cond.values, key=repr)!r}"
    if isinstance(cond, GreaterThanCondition):
        return f"{cond.parent} > {cond.threshold!r}"
    if isinstance(cond, LessThanCondition):
        return f"{cond.parent} < {cond.threshold!r}"
    return f"callable predicate over {cond.parent}"


# -- rule groups ---------------------------------------------------------------

def _lint_names(space: ConfigurationSpace, report: LintReport) -> None:
    if not space.names:
        report.add(_finding("SP103", space.name, "space has no parameters", "add at least one Parameter"))
        return
    canon: dict[str, str] = {}
    for name in space.names:
        key = name.lower().replace("-", "").replace("_", "")
        if key in canon and canon[key] != name:
            report.add(_finding(
                "SP102", name,
                f"name {name!r} differs from {canon[key]!r} only by case/word separators",
                "rename one of them; lookalike knobs invite silent misconfiguration",
            ))
        else:
            canon.setdefault(key, name)


def _lint_conditions(space: ConfigurationSpace, report: LintReport) -> None:
    """Condition-graph rules: unsatisfiable, redundant and dead."""
    by_child: dict[str, list[Condition]] = {}
    for cond in space.conditions:
        by_child.setdefault(cond.child, []).append(cond)

    dead: set[str] = set()
    undecidable: set[str] = set()
    for child, conds in by_child.items():
        child_dead = False
        for cond in conds:
            if isinstance(cond, CallableCondition):
                report.add(_finding(
                    "SP401", child,
                    f"condition on {child!r} ({_describe_condition(cond)}) holds a Python "
                    "callable and cannot be serialised; a resumed/service session drops it",
                    "express it with Equals/In/GreaterThan/LessThan conditions",
                ))
                undecidable.add(child)
                continue
            parent = space[cond.parent]
            truth = _condition_truth(cond, parent)
            if truth is False:
                report.add(_finding(
                    "SP201", child,
                    f"condition ({_describe_condition(cond)}) can never hold: no value of "
                    f"{cond.parent!r} satisfies it",
                    f"widen the condition or fix the domain of {cond.parent!r}",
                ))
                child_dead = True
            elif truth is True:
                report.add(_finding(
                    "SP202", child,
                    f"condition ({_describe_condition(cond)}) holds for every value of "
                    f"{cond.parent!r}; it never deactivates {child!r}",
                    "drop the condition or tighten its predicate",
                ))
        # Joint (AND) analysis per parent: chained thresholds/pins that are
        # individually fine can jointly exclude every value.
        if not child_dead and child not in undecidable:
            by_parent: dict[str, list[Condition]] = {}
            for cond in conds:
                by_parent.setdefault(cond.parent, []).append(cond)
            for parent_name, group in by_parent.items():
                if len(group) < 2:
                    continue
                feasible = _joint_feasible(group, space[parent_name])
                if feasible is False:
                    clauses = " AND ".join(_describe_condition(c) for c in group)
                    report.add(_finding(
                        "SP203", child,
                        f"conditions on {child!r} jointly exclude every value of "
                        f"{parent_name!r} ({clauses})",
                        "relax one of the conditions; as written the parameter is dead",
                    ))
                    child_dead = True
                    break
        if child_dead:
            dead.add(child)

    # Transitive deadness: a child needs *all* its parents active, so one
    # dead parent kills the whole subtree.
    changed = True
    while changed:
        changed = False
        for child, conds in by_child.items():
            if child in dead:
                continue
            killers = sorted({c.parent for c in conds if c.parent in dead})
            if killers:
                report.add(_finding(
                    "SP203", child,
                    f"parameter {child!r} can never activate: it is conditioned on dead "
                    f"parameter(s) {killers}",
                    "revive or remove the dead ancestors",
                ))
                dead.add(child)
                changed = True


def _linear_range(con: LinearConstraint, space: ConfigurationSpace) -> tuple[float, float] | None:
    """(min, max) of the constraint's LHS over the box, or None if not static."""
    lo_total = hi_total = 0.0
    for name, coef in con.coefficients.items():
        param = space[name]
        assert isinstance(param, _NumericParameter)
        lo, hi = float(param.lower), float(param.upper)
        lo_total += coef * (lo if coef >= 0 else hi)
        hi_total += coef * (hi if coef >= 0 else lo)
    return lo_total, hi_total


def _lint_constraints(space: ConfigurationSpace, report: LintReport) -> None:
    seen_linear: dict[tuple, str] = {}
    linears: list[LinearConstraint] = []
    for con in space.constraints:
        subject = con.name
        # Serializability: Linear and Ratio constraints cross the wire (space format 2).
        if type(con) not in (LinearConstraint, RatioConstraint):
            report.add(_finding(
                "SP402", subject,
                f"constraint {con!r} cannot be serialised; sessions resumed from storage "
                "(and every service session) run without it",
                "express it as a Linear/Ratio constraint, or enforce it inside the evaluator too",
            ))
        refs = constraint_params(con)
        if refs is None:
            continue  # black-box callable: nothing more to say statically
        missing = sorted(r for r in refs if r not in space)
        if missing:
            report.add(_finding(
                "SP303", subject,
                f"constraint references unknown parameter(s) {missing}; a constraint "
                "with an absent parameter is treated as satisfied and never applies",
                "fix the name or remove the constraint",
            ))
            continue
        non_numeric = sorted(
            r for r in refs if not isinstance(space[r], _NumericParameter)
        )
        if non_numeric:
            report.add(_finding(
                "SP304", subject,
                f"constraint does arithmetic on non-numeric parameter(s) {non_numeric}",
                "constraints need Float/Integer parameters",
            ))
            continue
        if isinstance(con, LinearConstraint):
            key = (tuple(sorted(con.coefficients.items())), con.bound)
            if key in seen_linear:
                report.add(_finding(
                    "SP305", subject,
                    f"constraint duplicates {seen_linear[key]!r} (same coefficients and bound)",
                    "remove one copy",
                ))
            else:
                seen_linear[key] = subject
                linears.append(con)
            rng = _linear_range(con, space)
            if rng is not None:
                lo, hi = rng
                if lo > con.bound + 1e-12:
                    report.add(_finding(
                        "SP301", subject,
                        f"constraint is unsatisfiable: LHS minimum over the box is {lo:g} "
                        f"> bound {con.bound:g}; every sample would be rejected",
                        "loosen the bound or widen the parameter ranges",
                    ))
                elif hi <= con.bound + 1e-12:
                    report.add(_finding(
                        "SP302", subject,
                        f"constraint always holds: LHS maximum over the box is {hi:g} "
                        f"<= bound {con.bound:g}",
                        "drop it; it only costs evaluation time",
                    ))
        elif isinstance(con, RatioConstraint):
            num, den = space[con.numerator], space[con.denominator]
            div = space[con.divisor] if con.divisor else None
            if all(p.lower > 0 for p in (num, den) + ((div,) if div else ())):
                rhs_max = float(den.upper) / (float(div.lower) if div else 1.0)
                rhs_min = float(den.lower) / (float(div.upper) if div else 1.0)
                if float(num.lower) > rhs_max + 1e-12:
                    report.add(_finding(
                        "SP301", subject,
                        f"ratio constraint is unsatisfiable: {con.numerator!r} >= "
                        f"{num.lower:g} always exceeds the largest RHS {rhs_max:g}",
                        "widen the denominator range or shrink the numerator's lower bound",
                    ))
                elif float(num.upper) <= rhs_min + 1e-12:
                    report.add(_finding(
                        "SP302", subject,
                        f"ratio constraint always holds: {con.numerator!r} <= "
                        f"{num.upper:g} never reaches the smallest RHS {rhs_min:g}",
                        "drop it; it only costs evaluation time",
                    ))
    # Pairwise contradiction: anti-proportional linear constraints squeezing
    # the same LHS into an empty band (c·x <= b1 and -k·c·x <= b2, k > 0).
    for i, a in enumerate(linears):
        for b in linears[i + 1:]:
            k = _anti_scale(a, b)
            if k is None:
                continue
            # b is -k * a, so b's constraint reads c·x >= -b.bound / k.
            if -b.bound / k > a.bound + 1e-12:
                report.add(_finding(
                    "SP306", f"{a.name}+{b.name}",
                    f"constraints {a.name!r} and {b.name!r} contradict: they squeeze "
                    f"the same expression into the empty band "
                    f"({-b.bound / k:g}, {a.bound:g}]",
                    "at least one bound must move; no configuration satisfies both",
                ))
    # The default configuration is the one point every session touches first.
    try:
        space.make({})
    except ConstraintViolationError as err:
        report.add(_finding(
            "SP307", space.name,
            f"the default configuration violates the space's constraints ({err})",
            "pick defaults that satisfy every constraint",
        ))
    except Exception:
        # Other construction problems (including constraints that crash on
        # non-numeric values — already reported as SP304) surface through
        # their own rules.
        pass


def _anti_scale(a: LinearConstraint, b: LinearConstraint) -> float | None:
    """k > 0 such that ``b.coefficients == -k * a.coefficients``, else None."""
    if set(a.coefficients) != set(b.coefficients):
        return None
    k: float | None = None
    for name, ca in a.coefficients.items():
        cb = b.coefficients[name]
        if ca == 0:
            if cb != 0:
                return None
            continue
        ratio = -cb / ca
        if ratio <= 0:
            return None
        if k is None:
            k = ratio
        elif not math.isclose(k, ratio, rel_tol=1e-9):
            return None
    return k


def _lint_priors(space: ConfigurationSpace, report: LintReport) -> None:
    grid = np.linspace(0.0, 1.0, 513)
    for param in space.parameters:
        if not isinstance(param, _NumericParameter) or isinstance(param.prior, UniformPrior):
            continue
        try:
            pdf = np.asarray(param.prior.pdf_unit(grid), dtype=float)
        except Exception as err:
            report.add(_finding(
                "SP501", param.name,
                f"prior of {param.name!r} failed to evaluate over [0, 1]: {err}",
                "fix the prior's pdf_unit",
            ))
            continue
        total = float(np.nansum(np.clip(pdf, 0.0, None)))
        if not math.isfinite(total) or total <= 0.0:
            report.add(_finding(
                "SP501", param.name,
                f"prior of {param.name!r} has no mass anywhere inside the parameter's "
                "range: every sample lands outside its support",
                "use a prior whose support intersects [lower, upper]",
            ))
            continue
        # Collapse check: on discrete/quantized domains a very sharp prior can
        # put essentially all its mass on one achievable value.
        if isinstance(param, IntegerParameter) or (
            isinstance(param, FloatParameter) and param.quantization is not None
        ):
            mass_by_value: dict[Any, float] = {}
            for u, w in zip(grid, pdf):
                if w <= 0:
                    continue
                mass_by_value.setdefault(param.from_unit(float(u)), 0.0)
                mass_by_value[param.from_unit(float(u))] += float(w)
            if len(mass_by_value) >= 1:
                top_value, top_mass = max(mass_by_value.items(), key=lambda kv: kv[1])
                n_values = _n_achievable(param)
                if n_values > 1 and top_mass / total >= 0.999:
                    report.add(_finding(
                        "SP502", param.name,
                        f"prior of {param.name!r} puts {100 * top_mass / total:.1f}% of its "
                        f"mass on the single value {top_value!r}; the knob is effectively "
                        "pinned",
                        "widen the prior or shrink the parameter's range to match it",
                    ))


def _n_achievable(param: _NumericParameter) -> int:
    if isinstance(param, IntegerParameter):
        return int(param.upper) - int(param.lower) + 1
    if isinstance(param, FloatParameter) and param.quantization is not None:
        return int(math.floor((param.upper - param.lower) / param.quantization)) + 1
    return 1 << 30  # effectively continuous


# -- entry point ---------------------------------------------------------------

def lint_space(space: ConfigurationSpace, ignore: Iterable[str] = ()) -> LintReport:
    """Run every space rule and return the report.

    ``ignore`` suppresses rule ids; suppressed findings stay in the report
    (counted, marked) but do not affect ``ok``.
    """
    ignored = {r.strip().upper() for r in ignore if r and r.strip()}
    unknown = ignored - set(SPACE_RULES)
    if unknown:
        raise SpaceError(f"unknown space-lint rule id(s) in ignore list: {sorted(unknown)}")
    report = LintReport(target=space.name)
    _lint_names(space, report)
    if space.names:
        _lint_conditions(space, report)
        _lint_constraints(space, report)
        _lint_priors(space, report)
    if ignored:
        report.findings = [
            Finding(**{**f.__dict__, "suppressed": True}) if f.rule in ignored else f
            for f in report.findings
        ]
    return report

