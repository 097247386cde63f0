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

The analysis is purely static — no sampling, no evaluator calls. What a
condition means is the space's, not the linter's: the condition rules read
:meth:`ConfigurationSpace.condition_outcomes` (each condition asked on its
parent's witness values, in independent factors), so a verdict cannot
disagree with how the space resolves a configuration. A knob is dead iff
some factor has no answer on which its lineage's conditions all hold, which
is asked per factor, never over their product, so the rules stay polynomial
in the size of the space. The constraint rules reason over intervals and
pairs of their own.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

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
from ..space.params import FloatParameter, IntegerParameter, _NumericParameter
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


# -- conditions ------------------------------------------------------------------

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
    """Condition rules, judged by what the space's conditions answer
    themselves (:meth:`ConfigurationSpace.condition_outcomes`): a condition
    that holds on no witness value of its parent (SP201) or on every one
    (SP202), and a knob active in no configuration (SP203)."""
    factors = space.condition_outcomes()
    answers = {cond: {vector[j] for vector in vectors} for conds, vectors in factors for j, cond in enumerate(conds)}
    never: set[str] = set()
    for cond in space.conditions:
        child = cond.child
        if isinstance(cond, CallableCondition):
            report.add(_finding(
                "SP401", child,
                f"condition on {child!r} ({_describe_condition(cond)}) holds a Python "
                "callable and cannot be serialised; a resumed/service session drops it",
                "express it with Equals/In/GreaterThan/LessThan conditions",
            ))
        elif answers[cond] == {False}:
            report.add(_finding(
                "SP201", child,
                f"condition ({_describe_condition(cond)}) can never hold: no value of "
                f"{cond.parent!r} satisfies it",
                f"widen the condition or fix the domain of {cond.parent!r}",
            ))
            never.add(child)
        elif answers[cond] == {True}:
            report.add(_finding(
                "SP202", child,
                f"condition ({_describe_condition(cond)}) holds for every value of "
                f"{cond.parent!r}; it never deactivates {child!r}",
                "drop the condition or tighten its predicate",
            ))
    # A knob is active iff every condition of it and of its conditioned
    # ancestors holds. The factors are independent, so some values activate
    # it iff each factor has a vector on which all those conditions hold:
    # asked per factor, never over their product.
    parents: dict[str, list[str]] = {}
    for cond in space.conditions:
        parents.setdefault(cond.child, []).append(cond.parent)
    for child in parents:
        lineage, pending = set(), [child]  # child and every knob its activation reads
        while pending:
            name = pending.pop()
            if name not in lineage:
                lineage.add(name)
                pending += parents.get(name, [])
        alive = all(any(all(held for held, cond in zip(vector, conds) if cond.child in lineage) for vector in vectors)
                    for conds, vectors in factors)
        if not alive and child not in never:
            report.add(_finding(
                "SP203", child,
                f"parameter {child!r} can never activate: no values of {sorted(lineage - {child})} "
                "meet its conditions and those of its conditioned ancestors together",
                "relax the conditions; as written the parameter is dead",
            ))


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

