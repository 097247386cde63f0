"""Configuration spaces: knobs, conditions, constraints, priors, adapters."""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use (see repro._lazy).
_EXPORTS = {
    "CallableCondition": ".conditions",
    "Condition": ".conditions",
    "EqualsCondition": ".conditions",
    "GreaterThanCondition": ".conditions",
    "InCondition": ".conditions",
    "LessThanCondition": ".conditions",
    "CallableConstraint": ".constraints",
    "Constraint": ".constraints",
    "LinearConstraint": ".constraints",
    "RatioConstraint": ".constraints",
    "BooleanParameter": ".params",
    "CategoricalParameter": ".params",
    "FloatParameter": ".params",
    "IntegerParameter": ".params",
    "Parameter": ".params",
    "BetaPrior": ".priors",
    "HistogramPrior": ".priors",
    "NormalPrior": ".priors",
    "Prior": ".priors",
    "UniformPrior": ".priors",
    "Configuration": ".space",
    "ConfigurationSpace": ".space",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
