"""Operator calculus on a discrete momentum lattice.

A toolkit for the finite-difference operator algebra on the uniform momentum
grid p_j = p0 + j*a: truncated matrix representations with interior identity
checks, an exact normal-ordering engine over Gaussian-rational Laurent
coefficients, the position-operator eigenproblem (recurrence, closed form,
normalization), and continuum-limit convergence studies.
"""

from .algebra import (
    ATOMS,
    ExpressionError,
    SymbolicOperator,
    format_normal_form,
    normal_form,
    parse,
    verify_symbolic_suite,
)
from .eigen import (
    EigenResult,
    alpha,
    eigenvector_closed_form,
    eigenvector_recurrence,
    normalization_direct,
    normalization_direct_first_n,
    normalization_formula,
    normalized,
    truncated_spectrum,
)
from .lattice import (
    GridFunction,
    MomentumLattice,
    a_integral,
    grid_from_csv,
    grid_to_csv,
    inner_product,
    sample,
    square_well_lattice,
)
from .operators import (
    ConvergenceTable,
    OperatorMatrix,
    ResidualReport,
    adjoint,
    apply,
    build_operator,
    continuum_scan,
    expression_matrix,
    interior_residual,
    to_matrix,
    verify_identity_suite,
    window_lattice,
)

__all__ = [
    "ATOMS",
    "ConvergenceTable",
    "EigenResult",
    "ExpressionError",
    "GridFunction",
    "MomentumLattice",
    "OperatorMatrix",
    "ResidualReport",
    "SymbolicOperator",
    "a_integral",
    "adjoint",
    "alpha",
    "apply",
    "build_operator",
    "continuum_scan",
    "eigenvector_closed_form",
    "eigenvector_recurrence",
    "expression_matrix",
    "format_normal_form",
    "grid_from_csv",
    "grid_to_csv",
    "inner_product",
    "interior_residual",
    "normal_form",
    "normalization_direct",
    "normalization_direct_first_n",
    "normalization_formula",
    "normalized",
    "parse",
    "sample",
    "square_well_lattice",
    "to_matrix",
    "truncated_spectrum",
    "verify_identity_suite",
    "verify_symbolic_suite",
    "window_lattice",
]

__version__ = "0.1.0"
