"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.
"""

import time

import numpy as np
import pytest

from momlat.algebra import verify_symbolic_suite
from momlat.eigen import (
    alpha,
    eigenvector_closed_form,
    eigenvector_recurrence,
    normalization_direct,
    normalization_formula,
    normalized,
)
from momlat.lattice import MomentumLattice, square_well_lattice
from momlat.operators import apply, build_operator, continuum_scan, verify_identity_suite

from cli_cases import GOLDEN, GOLDEN_CASES, run_cli
from test_eigen import unit_norm_check

EQUIVALENCE_GRID = [
    (x_frac / a, a, n)
    for x_frac in (0.0, 0.3, -0.3, 0.7, -0.7, 0.99, -0.99)
    for a in (0.1, 1.0)
    for n in (8, 128, 1024)
]


def report(name: str):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_symbolic_suite_exact_zero():
    start = time.perf_counter()
    checks = verify_symbolic_suite()
    elapsed = time.perf_counter() - start
    by_name = {c.identity: c for c in checks}
    required = [
        "A_Abar_is_identity", "Abar_A_is_identity",
        "commutator_A_P", "commutator_Abar_P",
        "commutator_D_P", "commutator_Dbar_P",
        "commutator_X_P", "H_shift_form",
        "commutator_X_H_braced", "commutator_X_H_expanded",
        "commutator_P_H_braced", "commutator_P_H_expanded",
        "QP_brace_expansion",
    ]
    for name in required:
        assert by_name[name].zero, name
        assert by_name[name].normal_form_term_count == 0
    assert elapsed < 1.0
    report("criterion 1 (symbolic suite reduces to exact zero, "
           f"{len(required)} checks in {elapsed:.3f}s)")


def test_criterion_2_numeric_suite_tolerances():
    start = time.perf_counter()
    fine = verify_identity_suite(MomentumLattice(0.0, 0.1, 64))
    for r in fine:
        assert r.max_interior_residual < 1e-12, (r.identity_name, r.max_interior_residual)
    well = verify_identity_suite(square_well_lattice(1.0, 16, hbar=1.0))
    for r in well:
        assert r.max_interior_residual < 1e-10, (r.identity_name, r.max_interior_residual)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"criterion 2 (numeric suite: a=0.1/n=64 < 1e-12, well-16 < 1e-10, {elapsed:.3f}s)")


def test_criterion_3_hermiticity_exact():
    for lat in (MomentumLattice(0.0, 0.1, 64), square_well_lattice(1.0, 16),
                MomentumLattice(-3.0, 0.7, 11)):
        by_name = {r.identity_name: r for r in verify_identity_suite(lat)}
        assert by_name["P_hermitian"].max_interior_residual == 0.0
        assert by_name["X_hermitian"].max_interior_residual == 0.0
        assert by_name["Abar_is_A_adjoint"].max_interior_residual == 0.0
    report("criterion 3 (P, X hermitian and Abar = adjoint(A) with residual exactly 0)")


def test_criterion_4_eigenvector_equivalence_grid():
    for x, a, n in EQUIVALENCE_GRID:
        lat = MomentumLattice(0.0, a, n)
        closed = eigenvector_closed_form(lat, x, 1.0)
        rec = eigenvector_recurrence(lat, x, 1.0)
        phi_c = closed.phi.values
        phi_r = rec.phi.values
        scale = np.max(np.abs(phi_c))

        # recurrence and closed form agree entrywise
        assert np.max(np.abs(phi_c - phi_r)) < 1e-12 * scale, (x, a, n)

        # h factorization: phi_j - alpha phi_{j-1} is a geometric sequence
        al = alpha(x, a)
        h = np.empty(n, dtype=complex)
        h[0] = phi_r[0]
        h[1:] = phi_r[1:] - al * phi_r[:-1]
        expected = (-al.conjugate()) ** np.arange(n) * phi_r[0]
        assert np.max(np.abs(h - expected)) < 1e-12 * np.max(np.abs(expected)), (x, a, n)

        # interior eigen-equation at rows 1..n-2
        if n >= 3:
            X = build_operator(lat, "X")
            resid = apply(X, closed.phi).values - x * phi_c
            assert np.max(np.abs(resid[1:-1])) < 1e-12 * max(1.0, abs(x) * scale), (x, a, n)
    report(f"criterion 4 (recurrence/closed-form/h-factor/eigen-equation on "
           f"{len(EQUIVALENCE_GRID)} grid cases, 1e-12 relative)")


def test_criterion_5_normalization_and_side_by_side_report():
    print("\n x          a      n     phi0_formula(N=n-1)  direct(first n-1)    direct(all n)")
    for x, a, n in EQUIVALENCE_GRID:
        lat = MomentumLattice(0.0, a, n)
        res = eigenvector_closed_form(lat, x, 1.0)
        unit = normalized(res)
        assert unit_norm_check(unit) < 1e-12, (x, a, n)

        formula = normalization_formula(x, a, n - 1)
        head = MomentumLattice(0.0, a, n - 1)
        direct_head = normalization_direct(eigenvector_recurrence(head, x, 1.0))
        direct_full = normalization_direct(res)
        print(f"{x:8.2f} {a:6.2f} {n:5d}   {formula:18.12f}  {direct_head:18.12f} "
              f"{direct_full:16.12f}")
        # the printed formula corresponds to summing the first N points
        assert formula == pytest.approx(direct_head, rel=1e-11), (x, a, n)

    # documented finding: at x=0, a=1, N=4 the literal formula (0.5) differs
    # from the direct sum over all five points (1/3)
    formula_sq = normalization_formula(0.0, 1.0, 4) ** 2
    lat5 = MomentumLattice(0.0, 1.0, 5)
    direct_sq = normalization_direct(eigenvector_recurrence(lat5, 0.0, 1.0)) ** 2
    assert formula_sq == pytest.approx(0.5, rel=1e-12)
    assert direct_sq == pytest.approx(1.0 / 3.0, rel=1e-12)
    report("criterion 5 (unit norms to 1e-12; formula reconciled with the "
           "first-N-points sum; known 0.5 vs 1/3 case reproduced)")


def test_criterion_6_continuum_limit():
    start = time.perf_counter()
    table = continuum_scan((0.1, 0.05, 0.025, 0.0125), window=(-8.0, 8.0))
    elapsed = time.perf_counter() - start
    assert table.slope == pytest.approx(2.0, abs=0.1)
    for r1, r2 in zip(table.residuals, table.residuals[1:]):
        assert 3.8 <= r1 / r2 <= 4.2
    assert elapsed < 5.0
    report(f"criterion 6 (log-log slope {table.slope:.4f} within 2.0+-0.1, "
           f"ratios in [3.8,4.2], {elapsed:.2f}s)")


def test_criterion_7_truncated_spectrum():
    a = 1.0
    for n in (1, 2, 3, 16):
        lat = MomentumLattice(0.0, a, n)
        X = build_operator(lat, "X")
        oracle = np.linalg.eigvalsh(X.entries)
        from momlat.eigen import truncated_spectrum
        ev = truncated_spectrum(lat)
        assert np.max(np.abs(ev - oracle)) < 1e-10
        assert np.all(np.abs(ev) <= 1.0 / a + 1e-10)
        # closed pattern, asserted after oracle confirmation
        pattern = np.sort(np.cos(np.arange(1, n + 1) * np.pi / (n + 1)) / a)
        assert np.max(np.abs(ev - pattern)) < 1e-10
    report("criterion 7 (spectrum matches eigensolver oracle and the "
           "cos(k*pi/(n+1))/a pattern, all inside [-1/a, 1/a])")


def test_criterion_8_cli_contract():
    # exit-code classes
    assert run_cli("verify", "--p0", "0", "--a", "0.1", "--n", "64")[0] == 0
    assert run_cli("check", "A*P")[0] == 1
    assert run_cli("verify", "--p0", "0", "--a", "0.1", "--n", "64", "--tol", "0")[0] == 1
    assert run_cli("verify", "--n", "4")[0] == 2
    assert run_cli("check", "[X,[P,")[0] == 2

    # byte-deterministic golden outputs
    for fname, argv in GOLDEN_CASES.items():
        _, first, _ = run_cli(*argv)
        _, second, _ = run_cli(*argv)
        assert first == second, fname
        assert first == (GOLDEN / fname).read_text(), fname
    report("criterion 8 (exit-code classes 0/1/2 and byte-identical golden outputs)")
