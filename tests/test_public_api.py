"""The package's public surface: the names `momlat.__all__` lists."""

import momlat

PUBLIC_NAMES = [
    "ATOMS", "ConvergenceTable", "EigenResult", "ExpressionError", "GridFunction",
    "MomentumLattice", "OperatorMatrix", "ResidualReport", "SymbolicOperator", "a_integral",
    "adjoint", "alpha", "apply", "build_operator", "continuum_scan",
    "eigenvector_closed_form", "eigenvector_recurrence", "expression_matrix",
    "format_normal_form", "grid_from_csv", "grid_to_csv", "inner_product", "interior_residual",
    "normal_form", "normalization_direct", "normalization_direct_first_n",
    "normalization_formula", "normalized", "parse", "sample", "square_well_lattice",
    "to_matrix", "truncated_spectrum", "verify_identity_suite", "verify_symbolic_suite",
    "window_lattice",
]


def test_all_is_the_sorted_public_surface():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert momlat.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_listed_name():
    namespace: dict = {}
    exec("from momlat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(momlat, name)
