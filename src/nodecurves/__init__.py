"""Exact tools for bivariate interpolation nodes and the algebraic curves
passing through them.

All computation is over rational numbers; nothing here rounds.  The modules
stay importable on their own, but the names most scripts need are lifted to
the package root.
"""

from .curves import (
    Curve,
    LineForm,
    LineUnion,
    extend_on_curve,
    is_maximal_curve,
    max_nodes_on_curve,
    node_uses,
    same_curve,
    space_divisible_by,
    uniqueness_threshold,
)
from .errors import BudgetExceeded, TheoremViolation
from .generators import berzolari_radon, defect_config, random_poised
from .nodes import (
    Node,
    NodeSet,
    extend_to_poised,
    fundamental_polynomial,
    hilbert_function,
    is_independent,
    is_poised,
    node,
    vanishing_basis,
)
from .poly import Poly, space_dim
from .verify import (
    characterize_defect,
    curve_through_extra_node,
    curves_through,
    line_usage_reports,
    verify_uniqueness,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "Curve",
    "LineForm",
    "LineUnion",
    "Node",
    "NodeSet",
    "Poly",
    "TheoremViolation",
    "berzolari_radon",
    "characterize_defect",
    "curve_through_extra_node",
    "curves_through",
    "defect_config",
    "extend_on_curve",
    "extend_to_poised",
    "fundamental_polynomial",
    "hilbert_function",
    "is_independent",
    "is_maximal_curve",
    "is_poised",
    "line_usage_reports",
    "max_nodes_on_curve",
    "node",
    "node_uses",
    "random_poised",
    "same_curve",
    "space_dim",
    "space_divisible_by",
    "uniqueness_threshold",
    "vanishing_basis",
    "verify_uniqueness",
]
