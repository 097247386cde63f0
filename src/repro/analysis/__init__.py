"""Analysis: knob importance, convergence comparison, reporting."""

from .convergence import ComparisonResult, compare_optimizers
from .importance import (
    KnobRanking,
    LassoImportance,
    lasso_coordinate_descent,
    permutation_importance,
)
from .reporting import format_table, format_value, print_table

__all__ = [
    "ComparisonResult",
    "compare_optimizers",
    "KnobRanking",
    "LassoImportance",
    "lasso_coordinate_descent",
    "permutation_importance",
    "format_table",
    "format_value",
    "print_table",
]
