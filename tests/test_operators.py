import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momlat.algebra import IDENTITIES
from momlat.lattice import GridFunction, MomentumLattice, square_well_lattice
from momlat.operators import (
    OperatorMatrix,
    adjoint,
    apply,
    bracket,
    build_operator,
    continuum_scan,
    convergence_to_csv,
    interior_residual,
    reports_to_csv,
    unit_gaussian,
    verify_identity_suite,
    window_lattice,
)


def random_grid(lattice, seed):
    rng = np.random.default_rng(seed)
    n = lattice.n_points
    return GridFunction(lattice, rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestBuildOperator:
    def test_shift_up_matrix(self):
        lat = MomentumLattice(0.0, 1.0, 3)
        A = build_operator(lat, "A")
        assert np.array_equal(A.entries,
                              np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex))
        assert A.shift_radius == 1

    def test_momentum_diagonal(self):
        lat = MomentumLattice(0.0, 0.5, 2)
        P = build_operator(lat, "P")
        assert np.array_equal(P.entries, np.diag([0.0 + 0j, 0.5 + 0j]))
        assert P.shift_radius == 0

    def test_single_point_position_operator(self):
        lat = MomentumLattice(2.0, 1.0, 1)
        X = build_operator(lat, "X")
        assert np.array_equal(X.entries, np.zeros((1, 1)))

    def test_unknown_name(self):
        lat = MomentumLattice(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            build_operator(lat, "Z")

    def test_declared_radii(self):
        lat = MomentumLattice(0.0, 0.5, 6)
        expected = {"A": 1, "Abar": 1, "D": 1, "Dbar": 1, "P": 0, "X": 1,
                    "Q": 1, "H": 2, "I": 0}
        for name, radius in expected.items():
            assert build_operator(lat, name).shift_radius == radius

    def test_band_violation_rejected(self):
        lat = MomentumLattice(0.0, 1.0, 3)
        dense = np.ones((3, 3), dtype=complex)
        with pytest.raises(ValueError, match="outside the declared band"):
            OperatorMatrix.from_dense(lat, dense, 1)


class TestApply:
    def test_shift_up_truncates_last(self):
        lat = MomentumLattice(0.0, 1.0, 3)
        f = GridFunction(lat, [1, 2, 3])
        out = apply(build_operator(lat, "A"), f)
        assert np.array_equal(out.values, [2, 3, 0])

    def test_shift_down_truncates_first(self):
        lat = MomentumLattice(0.0, 1.0, 3)
        f = GridFunction(lat, [1, 2, 3])
        out = apply(build_operator(lat, "Abar"), f)
        assert np.array_equal(out.values, [0, 1, 2])

    def test_identity(self):
        lat = MomentumLattice(0.0, 1.0, 3)
        f = GridFunction(lat, [1j, 2, 3])
        out = apply(build_operator(lat, "I"), f)
        assert np.array_equal(out.values, f.values)

    def test_lattice_mismatch(self):
        lat1 = MomentumLattice(0.0, 1.0, 3)
        lat2 = MomentumLattice(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            apply(build_operator(lat1, "A"), GridFunction(lat2, [1, 2, 3]))


class TestBracket:
    def test_self_commutator_vanishes(self):
        lat = MomentumLattice(0.0, 0.7, 5)
        P = build_operator(lat, "P")
        assert np.all(bracket("commutator", P, P).entries == 0)

    def test_shift_momentum_commutator_interior(self):
        lat = MomentumLattice(0.0, 0.7, 8)
        A = build_operator(lat, "A")
        P = build_operator(lat, "P")
        resid = bracket("commutator", A, P) - A.scaled(lat.a)
        assert interior_residual(resid, 1) == pytest.approx(0.0, abs=1e-15)

    def test_identity_anticommutator_doubles(self):
        lat = MomentumLattice(0.0, 1.0, 6)
        I = build_operator(lat, "I")
        Q = build_operator(lat, "Q")
        out = bracket("anticommutator", I, Q)
        assert np.allclose(out.entries, 2 * Q.entries, atol=1e-15)

    def test_radius_adds(self):
        lat = MomentumLattice(0.0, 1.0, 8)
        X = build_operator(lat, "X")
        H = build_operator(lat, "H")
        assert bracket("commutator", X, H).shift_radius == 3

    def test_bad_kind_and_mismatch(self):
        lat = MomentumLattice(0.0, 1.0, 4)
        A = build_operator(lat, "A")
        with pytest.raises(ValueError):
            bracket("nested", A, A)
        other = build_operator(MomentumLattice(0.0, 2.0, 4), "A")
        with pytest.raises(ValueError):
            bracket("commutator", A, other)


class TestInteriorResidual:
    def test_shift_momentum_identity_exact(self):
        lat = MomentumLattice(0.0, 0.5, 8)
        A = build_operator(lat, "A")
        P = build_operator(lat, "P")
        M = bracket("commutator", A, P) - A.scaled(lat.a)
        assert interior_residual(M, 1) == 0.0

    def test_shift_inverse_boundary_row(self):
        lat = MomentumLattice(0.0, 0.5, 8)
        A = build_operator(lat, "A")
        Abar = build_operator(lat, "Abar")
        I = build_operator(lat, "I")
        M = A @ Abar - I
        assert interior_residual(M, 1) == 0.0
        assert interior_residual(M, 0) == 1.0

    def test_zero_matrix(self):
        lat = MomentumLattice(0.0, 1.0, 4)
        Z = OperatorMatrix.from_dense(lat, np.zeros((4, 4)), 0)
        assert interior_residual(Z, 0) == 0.0

    def test_margin_bounds(self):
        lat = MomentumLattice(0.0, 1.0, 4)
        Z = OperatorMatrix.from_dense(lat, np.zeros((4, 4)), 0)
        with pytest.raises(ValueError):
            interior_residual(Z, 2)  # empty row range
        with pytest.raises(ValueError):
            interior_residual(Z, -1)


class TestIdentitySuite:
    def test_fine_lattice_below_1e12(self):
        reports = verify_identity_suite(MomentumLattice(0.0, 0.1, 64))
        assert len(reports) == 16
        for r in reports:
            assert r.max_interior_residual < 1e-12, r.identity_name

    def test_square_well_below_1e10(self):
        reports = verify_identity_suite(square_well_lattice(1.0, 16))
        for r in reports:
            assert r.max_interior_residual < 1e-10, r.identity_name

    def test_hermiticity_exact_zero(self):
        reports = {r.identity_name: r for r in
                   verify_identity_suite(MomentumLattice(-3.0, 0.37, 21))}
        assert reports["X_hermitian"].max_interior_residual == 0.0
        assert reports["P_hermitian"].max_interior_residual == 0.0
        assert reports["Abar_is_A_adjoint"].max_interior_residual == 0.0

    def test_small_lattice_rejected(self):
        with pytest.raises(ValueError):
            verify_identity_suite(MomentumLattice(0.0, 1.0, 7))

    @pytest.mark.parametrize("n,a_max", [(8, 2.5), (64, 0.31), (257, 0.078)])
    def test_envelope_lattices_below_1e12(self, n, a_max):
        # |p| <= 10 envelope, moderate stretches
        lat = MomentumLattice(-10.0, a_max, n)
        assert abs(lat.momentum_at(n - 1)) <= 10.0
        for r in verify_identity_suite(lat):
            assert r.max_interior_residual < 1e-12, r.identity_name

    @pytest.mark.xfail(
        strict=True,
        reason="double-precision floor: |p|<=10 with n=1024 forces a~0.02 and "
               "the degree-3 bracket residuals sit at eps/a^3 ~ 1e-11 > 1e-12",
    )
    def test_envelope_corner_n1024_literal_tolerance(self):
        lat = MomentumLattice(-10.0, 20.0 / 1023, 1024)
        for r in verify_identity_suite(lat):
            assert r.max_interior_residual < 1e-12, r.identity_name


# --- hand-written reference ---------------------------------------------------
# The operators and identity checks written out with dense matrix arithmetic,
# in the floating-point operation order the banded code must reproduce.

def ascending_product(x, y):
    """Dense product, each entry summed over the columns of x in ascending order."""
    out = np.zeros((x.shape[0], y.shape[1]), dtype=complex)
    for k in range(x.shape[1]):
        out += x[:, k, None] * y[None, k, :]
    return out


@dataclass(frozen=True)
class Dense:
    """Dense reference matrix with the same arithmetic as OperatorMatrix."""

    entries: np.ndarray
    shift_radius: int

    def __add__(self, other):
        return Dense(self.entries + other.entries, max(self.shift_radius, other.shift_radius))

    def __sub__(self, other):
        return Dense(self.entries - other.entries, max(self.shift_radius, other.shift_radius))

    def __matmul__(self, other):
        return Dense(ascending_product(self.entries, other.entries),
                     self.shift_radius + other.shift_radius)

    def scaled(self, c):
        return Dense(c * self.entries, self.shift_radius)


def dense_residual(M, margin):
    n = M.entries.shape[0]
    return float(np.max(np.abs(M.entries[margin:n - margin, :])))


def reference_operator(lattice, name):
    """The recursive builder that the definition table replaced."""
    n = lattice.n_points
    a = lattice.a

    def ref(other):
        return reference_operator(lattice, other)

    if name == "I":
        return Dense(np.eye(n, dtype=complex), 0)
    if name == "A":
        return Dense(np.eye(n, k=1, dtype=complex), 1)
    if name == "Abar":
        return Dense(np.eye(n, k=-1, dtype=complex), 1)
    if name == "P":
        return Dense(np.diag(lattice.momenta().astype(complex)), 0)
    if name == "D":
        return (ref("A") - ref("I")).scaled(1.0 / a)
    if name == "Dbar":
        return (ref("I") - ref("Abar")).scaled(1.0 / a)
    if name == "X":
        return (ref("D") + ref("Dbar")).scaled(1.0 / 2.0j)
    if name == "Q":
        return ref("Dbar") - ref("D")
    assert name == "H"
    return ref("X") @ ref("X") + ref("P") @ ref("P")


def reference_checks(lattice):
    """(name, residual, margin) of every identity with a margin, in table order."""
    a = lattice.a
    A, Abar, D, Dbar, P, X, Q, I = (reference_operator(lattice, name) for name in
                                    ("A", "Abar", "D", "Dbar", "P", "X", "Q", "I"))
    H = X @ X + P @ P

    def comm(M1, M2):
        return M1 @ M2 - M2 @ M1

    def anti(M1, M2):
        return M1 @ M2 + M2 @ M1

    XH = comm(X, H)
    PH = comm(P, H)
    H_shift = ((A - Abar) @ (A - Abar)).scaled(-1.0 / (4.0 * a * a)) + P @ P
    checks = [
        ("A_Abar_is_identity", A @ Abar - I, 1),
        ("Abar_A_is_identity", Abar @ A - I, 1),
        ("commutator_A_P", comm(A, P) - A.scaled(a), 1),
        ("commutator_Abar_P", comm(Abar, P) + Abar.scaled(a), 1),
        ("commutator_D_P", comm(D, P) - A, 1),
        ("commutator_Dbar_P", comm(Dbar, P) - Abar, 1),
        ("commutator_X_P", comm(X, P) + I.scaled(1.0j) - Q.scaled(0.5j * a), 1),
        ("H_shift_form", H - H_shift, 2),
        ("commutator_X_H_braced", XH + P.scaled(2.0j) - anti(Q, P).scaled(0.5j * a), 3),
        ("commutator_X_H_expanded",
         XH + P.scaled(2.0j) - (P @ Q).scaled(1.0j * a) - X.scaled(a * a), 3),
        ("commutator_P_H_braced", PH - X.scaled(2.0j) + anti(Q, X).scaled(0.5j * a), 3),
        ("commutator_P_H_expanded", PH - X.scaled(2.0j) + (X @ Q).scaled(1.0j * a), 3),
    ]
    return [(name, dense_residual(M, margin), margin) for name, M, margin in checks]


def _reference_lattices():
    rng = np.random.default_rng(20240)
    seeded = [MomentumLattice(float(rng.uniform(-10, 10)), float(rng.uniform(0.01, 2.0)),
                              int(rng.integers(8, 161))) for _ in range(12)]
    return [MomentumLattice(0.0, 0.1, 64), square_well_lattice(1.0, 16)] + seeded


class TestTableDrivenSuite:
    @pytest.mark.parametrize("lat", _reference_lattices(), ids=lambda lat: lat.descriptor())
    def test_bitwise_equal_to_hand_written_reference(self, lat):
        reports = verify_identity_suite(lat)
        expected = reference_checks(lat)
        got = [(r.identity_name, r.max_interior_residual, r.margin_rows)
               for r in reports[:len(expected)]]
        assert got == expected

    @pytest.mark.parametrize("lat", _reference_lattices()[:4], ids=lambda lat: lat.descriptor())
    def test_operators_bitwise_equal_to_reference(self, lat):
        for name in ("A", "Abar", "D", "Dbar", "P", "X", "Q", "H", "I"):
            built, ref = build_operator(lat, name), reference_operator(lat, name)
            assert np.array_equal(built.entries, ref.entries), name
            assert built.shift_radius == ref.shift_radius, name

    def test_rows_with_a_margin_and_only_those_are_reported_in_table_order(self):
        reports = verify_identity_suite(MomentumLattice(0.0, 0.1, 16))
        table = [(name, margin) for name, _, margin in IDENTITIES if margin is not None]
        assert [(r.identity_name, r.margin_rows) for r in reports[:len(table)]] == table
        symbolic_only = {name for name, _, margin in IDENTITIES if margin is None}
        assert symbolic_only == {"QP_brace_expansion", "D_Dbar_commute_lemma"}
        assert [r.identity_name for r in reports[len(table):]] == [
            "P_hermitian", "X_hermitian", "Abar_is_A_adjoint", "A_adjoint_inner_product"]


class TestLeibnizRules:
    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_forward_rule(self, seed, a):
        lat = MomentumLattice(-1.0, a, 24)
        f = random_grid(lat, seed)
        g = random_grid(lat, seed + 1)
        D = build_operator(lat, "D")
        fg = GridFunction(lat, f.values * g.values)
        lhs = apply(D, fg).values
        shifted_f = np.append(f.values[1:], 0.0)
        rhs = apply(D, f).values * g.values + shifted_f * apply(D, g).values
        assert np.max(np.abs((lhs - rhs)[:-1])) < 1e-12

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_backward_rule(self, seed, a):
        lat = MomentumLattice(-1.0, a, 24)
        f = random_grid(lat, seed)
        g = random_grid(lat, seed + 1)
        Dbar = build_operator(lat, "Dbar")
        fg = GridFunction(lat, f.values * g.values)
        lhs = apply(Dbar, fg).values
        shifted_f = np.insert(f.values[:-1], 0, 0.0)
        rhs = apply(Dbar, f).values * g.values + shifted_f * apply(Dbar, g).values
        assert np.max(np.abs((lhs - rhs)[1:])) < 1e-12


class TestBandInvariant:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20)
    def test_radius_survives_arithmetic(self, seed):
        rng = np.random.default_rng(seed)
        lat = MomentumLattice(-2.0, 0.4, 12)
        names = ["A", "Abar", "D", "Dbar", "P", "X", "Q", "I"]
        ops = [build_operator(lat, rng.choice(names)) for _ in range(3)]
        combo = (ops[0] @ ops[1]) + ops[2].scaled(rng.standard_normal())
        # the storage holds only the band; check the dense view against it
        n = lat.n_points
        idx = np.arange(n)
        outside = np.abs(idx[:, None] - idx[None, :]) > combo.shift_radius
        if combo.shift_radius < n - 1:
            assert np.all(combo.entries[outside] == 0)


def random_banded(lattice, radius, rng):
    """A random complex operator with every diagonal up to the radius filled."""
    n = lattice.n_points
    idx = np.arange(n)
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    dense[np.abs(idx[:, None] - idx[None, :]) > radius] = 0
    return OperatorMatrix.from_dense(lattice, dense, radius)


class TestBandedStorage:
    def test_shift_diagonals_and_padding(self):
        lat = MomentumLattice(0.0, 1.0, 4)
        A, Abar = build_operator(lat, "A"), build_operator(lat, "Abar")
        assert np.array_equal(A.bands, [[0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 1, 0]])
        assert np.array_equal(Abar.bands, [[0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 0, 0]])

    def test_shape_checked(self):
        lat = MomentumLattice(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="shape"):
            OperatorMatrix(lat, np.zeros((2, 4)), 1)
        with pytest.raises(ValueError, match="shape"):
            OperatorMatrix.from_dense(lat, np.zeros((3, 3)), 1)
        with pytest.raises(ValueError, match="non-negative"):
            OperatorMatrix(lat, np.zeros((1, 4)), -1)

    def test_storage_and_dense_view_read_only(self):
        X = build_operator(MomentumLattice(0.0, 0.5, 6), "X")
        assert not X.bands.flags.writeable
        assert not X.entries.flags.writeable

    def test_radius_wider_than_lattice(self):
        lat = MomentumLattice(0.0, 1.0, 2)
        M = random_banded(lat, 1, np.random.default_rng(3))
        product = M @ M @ M
        assert product.shift_radius == 3 and product.bands.shape == (7, 2)
        assert np.array_equal(product.entries,
                              ascending_product(ascending_product(M.entries, M.entries),
                                                M.entries))

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_bitwise_equal_to_dense(self, seed, n, r1, r2):
        rng = np.random.default_rng(seed)
        lat = MomentumLattice(-1.0, 0.3, n)
        L, R = random_banded(lat, r1, rng), random_banded(lat, r2, rng)
        assert np.array_equal(L.entries, OperatorMatrix.from_dense(lat, L.entries, r1).entries)
        assert np.array_equal((L @ R).entries, ascending_product(L.entries, R.entries))
        assert np.array_equal((L + R).entries, L.entries + R.entries)
        assert np.array_equal((L - R).entries, L.entries - R.entries)
        assert np.array_equal(adjoint(L).entries, L.entries.conj().T)
        c = complex(rng.standard_normal(), rng.standard_normal())
        assert np.array_equal(L.scaled(c).entries, c * L.entries)
        f = random_grid(lat, seed)
        assert np.array_equal(apply(L, f).values,
                              ascending_product(L.entries, f.values[:, None])[:, 0])
        for margin in range((n + 1) // 2):
            assert interior_residual(L, margin) == \
                float(np.max(np.abs(L.entries[margin:n - margin, :])))


class TestSuiteAtScale:
    def test_n20000_suite_in_banded_memory(self):
        # one dense 20000 x 20000 complex matrix alone would take 6.4 GB
        lat = MomentumLattice(-10.0, 20.0 / 19999, 20000)
        tracemalloc.start()
        try:
            reports = verify_identity_suite(lat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == 16
        assert peak < 64 * 2 ** 20
        names = {r.identity_name for r in reports}
        assert {"commutator_X_H_braced", "A_adjoint_inner_product"} <= names

    @pytest.mark.parametrize("lat", [MomentumLattice(0.0, 1e200, 16),
                                     MomentumLattice(1e300, 0.1, 16),
                                     square_well_lattice(1e-300, 8)],
                             ids=lambda lat: lat.descriptor())
    def test_overflow_rejected(self, lat):
        with pytest.raises(ValueError, match="overflowed") as err:
            verify_identity_suite(lat)
        assert lat.descriptor() in str(err.value)


class TestContinuumScan:
    def test_gaussian_second_order(self):
        table = continuum_scan((0.1, 0.05, 0.025, 0.0125))
        assert table.slope == pytest.approx(2.0, abs=0.1)
        assert table.residuals[0] / table.residuals[1] == pytest.approx(4.0, abs=0.2)

    def test_residual_matches_second_derivative_scale(self):
        # (([X,P]+i)f) = (ia/2) Q f ~ -(i a^2/2) f'' on smooth f; the Gaussian
        # has max|f''| = 1 at the origin
        table = continuum_scan((0.1, 0.05, 0.025))
        for a, r in zip(table.spacings, table.residuals):
            assert r == pytest.approx(a * a / 2.0, rel=0.15)

    def test_constant_function_annihilated(self):
        table = continuum_scan((0.5, 0.25, 0.125),
                               test_function=lambda p: np.ones_like(p))
        assert all(r < 1e-13 for r in table.residuals)

    def test_validation(self):
        with pytest.raises(ValueError):
            continuum_scan((0.1, 0.05))
        with pytest.raises(ValueError):
            continuum_scan((0.05, 0.1, 0.2))
        with pytest.raises(ValueError):
            continuum_scan((0.1, -0.05, 0.025))

    def test_window_with_no_interior_row_rejected(self):
        assert window_lattice(0.025, (0.0, 0.05)).n_points == 3
        with pytest.raises(ValueError, match="spacing 0.05 leaves 2 point"):
            window_lattice(0.05, (0.0, 0.05))
        with pytest.raises(ValueError, match="window 0.0:0.05"):
            continuum_scan((0.1, 0.05, 0.025), window=(0.0, 0.05))

    def test_non_finite_window_and_vanishing_function_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            window_lattice(0.1, (-math.inf, 8.0))
        with pytest.raises(ValueError, match="vanishes"):
            continuum_scan((0.1, 0.05, 0.025), window=(100.0, 110.0))

    def test_window_lattice_covers(self):
        lat = window_lattice(0.1, (-8.0, 8.0))
        assert lat.n_points == 161
        assert lat.momentum_at(0) == -8.0
        assert lat.momentum_at(160) == pytest.approx(8.0)


class TestSerialization:
    def test_reports_csv_schema(self):
        reports = verify_identity_suite(MomentumLattice(0.0, 0.1, 8))
        text = reports_to_csv(reports)
        lines = text.strip().splitlines()
        assert lines[0] == "identity,margin,residual"
        assert len(lines) == 1 + len(reports)
        name, margin, residual = lines[1].split(",")
        assert name == "A_Abar_is_identity"
        int(margin), float(residual)

    def test_convergence_csv_trailing_slope(self):
        table = continuum_scan((0.4, 0.2, 0.1), window=(-6.0, 6.0))
        lines = convergence_to_csv(table).strip().splitlines()
        assert lines[0] == "a,r,log_a,log_r"
        assert lines[-1].startswith("slope,")
        assert lines[-1].endswith(",,")

    def test_gaussian_shape(self):
        p = np.linspace(-2, 2, 5)
        vals = unit_gaussian(p)
        assert vals[2] == pytest.approx(1.0)
        assert vals[0] == pytest.approx(math.exp(-2.0))


class TestAdjoint:
    def test_double_adjoint(self):
        lat = MomentumLattice(0.0, 0.3, 9)
        X = build_operator(lat, "X")
        assert np.array_equal(adjoint(adjoint(X)).entries, X.entries)


class TestConcurrentUse:
    def test_suite_runs_identically_across_threads(self):
        # pure functions over immutable inputs: concurrent runs must agree
        from concurrent.futures import ThreadPoolExecutor

        lattices = [MomentumLattice(0.0, 0.1, 32), square_well_lattice(1.0, 12),
                    MomentumLattice(-2.0, 0.5, 16), MomentumLattice(0.0, 0.1, 32)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(verify_identity_suite, lattices))
        assert results[0] == results[3]
        for reports in results:
            assert all(r.max_interior_residual < 1e-10 for r in reports)
