"""Configuration-space ↔ dict codec for durable sessions and the wire.

A tuning service that promises ``resume(session_id)`` after a process
restart must be able to rebuild the session's :class:`ConfigurationSpace`
from storage alone, and an HTTP client must be able to *define* a space in
a request body. This module provides both directions:

* :func:`space_to_dict` — JSON-safe description of parameters, conditions,
  closed-form constraints and (declarative) priors;
* :func:`space_from_dict` — rebuild the space, validating every field.

What round-trips: Float/Integer/Categorical/Boolean parameters (bounds,
defaults, log scale, quantization, weights), Uniform/Normal/Beta/Histogram
priors, Equals/In/GreaterThan/LessThan conditions and Linear/Ratio
constraints. What cannot: ``CallableCondition``, ``CallableConstraint``, and
friends hold arbitrary Python callables — with ``strict=True`` (the default)
serialising a space containing one raises :class:`SpaceCodecError`; with
``strict=False`` they are dropped and listed under ``"dropped"`` in the
output so the caller can surface the loss.

A space with a constraint is format 2 (a ``"constraints"`` list); one without
stays format 1, so its :func:`space_version_hash` is stable. Both formats read.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from ..exceptions import SpaceError
from .conditions import (
    Condition,
    EqualsCondition,
    GreaterThanCondition,
    InCondition,
    LessThanCondition,
)
from .constraints import Constraint, LinearConstraint, RatioConstraint
from .params import (
    BooleanParameter,
    CategoricalParameter,
    FloatParameter,
    IntegerParameter,
    Parameter,
)
from .priors import BetaPrior, HistogramPrior, NormalPrior, Prior, UniformPrior
from .space import ConfigurationSpace

__all__ = ["SpaceCodecError", "space_to_dict", "space_from_dict", "space_version_hash"]

SPACE_FORMAT_VERSION = 2  # format 1 is format 2 without constraints


class SpaceCodecError(SpaceError):
    """A space (or space description) could not be (de)serialised.

    When the failure is a specific space member (a callable condition, a
    constraint), ``subject`` names it and ``rule`` carries the matching
    :mod:`repro.staticcheck` rule id (``SP401``/``SP402``) so callers can
    cross-reference ``docs/static-analysis.md`` — the space linter flags
    the same member with the same id before serialisation is ever tried.
    """

    def __init__(self, message: str, *, subject: str | None = None, rule: str | None = None) -> None:
        super().__init__(message)
        self.subject = subject
        self.rule = rule


def _expect(data: Any, kind: type, what: str) -> Any:
    """``data`` if it has the JSON shape ``kind`` (``Mapping`` or ``list``)."""
    if not isinstance(data, kind):
        raise SpaceCodecError(f"{what} must be a JSON {kind.__name__.lower()}, got {data!r}")
    return data


# -- priors ------------------------------------------------------------------

def _prior_to_dict(prior: Prior) -> dict[str, Any] | None:
    if isinstance(prior, UniformPrior):
        return None  # the default; omit for compactness
    if isinstance(prior, NormalPrior):
        return {"kind": "normal", "mean": prior.mean, "std": prior.std}
    if isinstance(prior, BetaPrior):
        return {"kind": "beta", "a": prior.a, "b": prior.b}
    if isinstance(prior, HistogramPrior):
        return {"kind": "histogram", "bin_weights": [float(w) for w in prior.bin_weights]}
    raise SpaceCodecError(f"prior {type(prior).__name__} is not serialisable")


def _prior_from_dict(data: Mapping[str, Any] | None) -> Prior | None:
    if data is None:
        return None
    kind = _expect(data, Mapping, "a prior").get("kind")
    try:
        if kind == "normal":
            return NormalPrior(float(data["mean"]), float(data["std"]))
        if kind == "beta":
            return BetaPrior(float(data["a"]), float(data["b"]))
        if kind == "histogram":
            return HistogramPrior([float(w) for w in data["bin_weights"]])
    except (KeyError, TypeError, ValueError) as err:
        raise SpaceCodecError(f"malformed prior {data!r}: {err}") from err
    raise SpaceCodecError(f"unknown prior kind {kind!r}")


# -- parameters --------------------------------------------------------------

def _param_to_dict(param: Parameter) -> dict[str, Any]:
    # BooleanParameter subclasses CategoricalParameter: test it first.
    if isinstance(param, BooleanParameter):
        return {"type": "bool", "name": param.name, "default": bool(param.default)}
    if isinstance(param, CategoricalParameter):
        out: dict[str, Any] = {
            "type": "categorical",
            "name": param.name,
            "choices": list(param.choices),
            "default": param.default,
        }
        weights = [float(w) for w in param.weights]
        if len(set(weights)) > 1:
            out["weights"] = weights
        return out
    if isinstance(param, (IntegerParameter, FloatParameter)):
        kind, cast = ("int", int) if isinstance(param, IntegerParameter) else ("float", float)
        out = {"type": kind, "name": param.name, "lower": cast(param.lower), "upper": cast(param.upper),
               "default": cast(param.default), "log": bool(param.log)}
        if getattr(param, "quantization", None) is not None:
            out["quantization"] = float(param.quantization)
        prior = _prior_to_dict(param.prior)
        if prior is not None:
            out["prior"] = prior
        return out
    raise SpaceCodecError(f"parameter {type(param).__name__} is not serialisable")


def _param_from_dict(data: Mapping[str, Any]) -> Parameter:
    kind = _expect(data, Mapping, "a parameter").get("type")
    try:
        name = str(data["name"])
        if kind == "bool":
            return BooleanParameter(name, default=bool(data.get("default", False)))
        if kind == "categorical":
            return CategoricalParameter(
                name,
                list(data["choices"]),
                default=data.get("default"),
                weights=data.get("weights"),
            )
        if kind in ("int", "float"):
            cast = int if kind == "int" else float
            bounds = (name, cast(data["lower"]), cast(data["upper"]))
            default = None if data.get("default") is None else cast(data["default"])
            log, prior = bool(data.get("log", False)), _prior_from_dict(data.get("prior"))
            if kind == "int":
                return IntegerParameter(*bounds, default=default, log=log, prior=prior)
            quantization = None if data.get("quantization") is None else float(data["quantization"])
            return FloatParameter(*bounds, default=default, log=log, quantization=quantization, prior=prior)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise SpaceCodecError(f"malformed parameter {data!r}: {err}") from err
    raise SpaceCodecError(f"unknown parameter type {kind!r} in {data!r}")


# -- conditions --------------------------------------------------------------

_CONDITION_KINDS = {
    EqualsCondition: "equals",
    InCondition: "in",
    GreaterThanCondition: "gt",
    LessThanCondition: "lt",
}


def _condition_to_dict(cond: Condition) -> dict[str, Any] | None:
    kind = _CONDITION_KINDS.get(type(cond))
    if kind is None:
        return None
    out = {"kind": kind, "child": cond.child, "parent": cond.parent}
    if isinstance(cond, EqualsCondition):
        out["value"] = cond.value
    elif isinstance(cond, InCondition):
        out["values"] = sorted(cond.values, key=repr)
    elif isinstance(cond, (GreaterThanCondition, LessThanCondition)):
        out["threshold"] = cond.threshold
    return out


def _condition_from_dict(data: Mapping[str, Any]) -> Condition:
    kind = _expect(data, Mapping, "a condition").get("kind")
    try:
        child, parent = str(data["child"]), str(data["parent"])
        if kind == "equals":
            return EqualsCondition(child, parent, data["value"])
        if kind == "in":
            return InCondition(child, parent, list(data["values"]))
        if kind == "gt":
            return GreaterThanCondition(child, parent, float(data["threshold"]))
        if kind == "lt":
            return LessThanCondition(child, parent, float(data["threshold"]))
    except (KeyError, TypeError, ValueError) as err:
        raise SpaceCodecError(f"malformed condition {data!r}: {err}") from err
    raise SpaceCodecError(f"unknown condition kind {kind!r} in {data!r}")


# -- constraints -------------------------------------------------------------

def _constraint_to_dict(con: Constraint) -> dict[str, Any] | None:
    if type(con) is LinearConstraint:
        return {"kind": "linear", "name": con.name, "coefficients": dict(con.coefficients), "bound": con.bound}
    if type(con) is RatioConstraint:
        return {"kind": "ratio", "name": con.name, "numerator": con.numerator,
                "denominator": con.denominator, "divisor": con.divisor}
    return None


def _constraint_from_dict(data: Mapping[str, Any]) -> Constraint:
    kind, name = _expect(data, Mapping, "a constraint").get("kind"), str(data.get("name", ""))
    try:
        if kind == "linear":
            coefficients = _expect(data["coefficients"], Mapping, "'coefficients'")
            return LinearConstraint({str(k): float(v) for k, v in coefficients.items()}, float(data["bound"]), name)
        if kind == "ratio":
            divisor = data.get("divisor")
            return RatioConstraint(str(data["numerator"]), str(data["denominator"]), divisor and str(divisor), name)
    except (KeyError, TypeError, ValueError) as err:
        raise SpaceCodecError(f"malformed constraint {data!r}: {err}") from err
    raise SpaceCodecError(f"unknown constraint kind {kind!r} in {data!r}")


# -- the space ---------------------------------------------------------------

def space_to_dict(space: ConfigurationSpace, strict: bool = True) -> dict[str, Any]:
    """JSON-safe description of ``space``.

    With ``strict=True`` an unserialisable member (a callable condition or
    constraint) raises; with ``strict=False`` it is skipped and named in the
    ``"dropped"`` list of the result.
    """
    dropped: list[str] = []
    params = [_param_to_dict(p) for p in space.parameters]
    conditions = []
    for cond in space.conditions:
        encoded = _condition_to_dict(cond)
        if encoded is None:
            if strict:
                raise SpaceCodecError(
                    f"[SP401] condition on {cond.child!r} ({cond!r}) holds a Python "
                    "callable and cannot be serialised; express it with Equals/In/"
                    "GreaterThan/LessThan conditions, or use strict=False to drop it",
                    subject=cond.child,
                    rule="SP401",
                )
            dropped.append(repr(cond))
        else:
            conditions.append(encoded)
    constraints = []
    for constraint in space.constraints:
        encoded = _constraint_to_dict(constraint)
        if encoded is not None:
            constraints.append(encoded)
            continue
        if strict:
            raise SpaceCodecError(
                f"[SP402] constraint {constraint.name!r} ({constraint!r}) cannot be "
                "serialised; express it as a Linear/Ratio constraint, enforce it inside "
                "the evaluator too, or use strict=False to drop it",
                subject=constraint.name,
                rule="SP402",
            )
        dropped.append(repr(constraint))
    out: dict[str, Any] = {
        "version": SPACE_FORMAT_VERSION if constraints else 1,
        "name": str(space.name),
        "parameters": params,
        "conditions": conditions,
    }
    if constraints:
        out["constraints"] = constraints
    if dropped:
        out["dropped"] = dropped
    return out


def space_version_hash(space: ConfigurationSpace | Mapping[str, Any]) -> str:
    """Short content hash of a space's serialised form.

    Journaled into every trial's provenance block so ``repro replay`` can
    refuse to replay a journal against a space whose knobs have drifted
    (renamed parameters, changed bounds, new conditions). Accepts either a
    live space (serialised with ``strict=False``, matching what session
    metadata stores) or an already-serialised dict.
    """
    data = space if isinstance(space, Mapping) else space_to_dict(space, strict=False)
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def space_from_dict(data: Mapping[str, Any]) -> ConfigurationSpace:
    """Rebuild a configuration space written by :func:`space_to_dict`."""
    version = _expect(data, Mapping, "a space description").get("version", SPACE_FORMAT_VERSION)
    if version not in (1, SPACE_FORMAT_VERSION):
        raise SpaceCodecError(f"unsupported space-format version {version!r}")
    params = _expect(data.get("parameters", []), list, "'parameters'")
    if not params:
        raise SpaceCodecError("space description has no parameters")
    space = ConfigurationSpace(str(data.get("name", "space")))
    for p in params:
        space.add(_param_from_dict(p))
    for c in _expect(data.get("conditions", []), list, "'conditions'"):
        space.add_condition(_condition_from_dict(c))
    for c in _expect(data.get("constraints", []), list, "'constraints'"):
        space.add_constraint(_constraint_from_dict(c))  # an unknown knob in it is lint rule SP303's
    return space
