"""Analysis: knob importance, convergence comparison, reporting."""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use (see repro._lazy).
_EXPORTS = {
    "ComparisonResult": ".convergence",
    "compare_optimizers": ".convergence",
    "KnobRanking": ".importance",
    "LassoImportance": ".importance",
    "lasso_coordinate_descent": ".importance",
    "permutation_importance": ".importance",
    "format_table": ".reporting",
    "format_value": ".reporting",
    "print_table": ".reporting",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
