import math
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bits import same_bits

import momlat.algebra
import momlat.operators
from momlat.algebra import (ATOMS, DEFINITION_TREES, DEFINITIONS, IDENTITIES, IDENTITY_TREES,
                            OPERATOR_NAMES, SymbolicCheck, SymbolicOperator, fold,
                            format_normal_form, normal_form, parse, verify_symbolic_suite)
from momlat.lattice import (GridFunction, MomentumLattice, inner_product, sample,
                            square_well_lattice)
from momlat.operators import (
    ADJOINT_SEED,
    DEFAULT_WINDOW,
    MAX_CONTINUUM_LADDER_POINTS,
    MAX_CONTINUUM_POINTS,
    MAX_SUITE_POINTS,
    OperatorMatrix,
    adjoint,
    apply,
    build_operator,
    continuum_scan,
    convergence_to_csv,
    convergence_to_dict,
    expression_matrix,
    interior_residual,
    reports_to_csv,
    to_matrix,
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
    """The grammar's brackets [L,R] and {L,R}, evaluated by `expression_matrix`."""

    @pytest.mark.parametrize("left,right", [(left, right) for left in OPERATOR_NAMES
                                            for right in OPERATOR_NAMES])
    def test_brackets_are_the_matrix_products(self, left, right):
        for lat in (MomentumLattice(0.0, 0.7, 9), MomentumLattice(-2.3, 0.31, 14)):
            L, R = build_operator(lat, left), build_operator(lat, right)
            for text, expected in ((f"[{left},{right}]", L @ R - R @ L),
                                   (f"{{{left},{right}}}", L @ R + R @ L)):
                out = expression_matrix(text, lat)
                assert out.shift_radius == expected.shift_radius, text
                assert same_bits(out.bands, expected.bands), text

    def test_self_commutator_vanishes(self):
        lat = MomentumLattice(0.0, 0.7, 5)
        assert np.all(expression_matrix("[P,P]", lat).entries == 0)

    def test_shift_momentum_commutator_interior(self):
        lat = MomentumLattice(0.0, 0.7, 8)
        resid = expression_matrix("[A,P]", lat) - build_operator(lat, "A").scaled(lat.a)
        assert interior_residual(resid, 1) == pytest.approx(0.0, abs=1e-15)

    def test_identity_anticommutator_doubles(self):
        lat = MomentumLattice(0.0, 1.0, 6)
        out = expression_matrix("{I,Q}", lat)
        assert np.allclose(out.entries, 2 * build_operator(lat, "Q").entries, atol=1e-15)

    def test_radius_adds(self):
        lat = MomentumLattice(0.0, 1.0, 8)
        assert expression_matrix("[X,H]", lat).shift_radius == 3

    def test_lattice_mismatch_raises_through_matmul(self):
        A = build_operator(MomentumLattice(0.0, 1.0, 4), "A")
        other = build_operator(MomentumLattice(0.0, 2.0, 4), "A")
        with pytest.raises(ValueError, match="different lattices"):
            A @ other


class TestInteriorResidual:
    def test_shift_momentum_identity_exact(self):
        lat = MomentumLattice(0.0, 0.5, 8)
        A = build_operator(lat, "A")
        P = build_operator(lat, "P")
        M = A @ P - P @ A - A.scaled(lat.a)
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
        assert abs(lat.momenta()[n - 1]) <= 10.0
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


def dagger(M):
    """Dense conjugate transpose."""
    return Dense(M.entries.conj().T, M.shift_radius)


def reference_checks(lattice):
    """(name, residual, margin) of every identity with a margin, in table
    order, then of the three hermiticity rows."""
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
        ("P_hermitian", P - dagger(P), 0),
        ("X_hermitian", X - dagger(X), 0),
        ("Abar_is_A_adjoint", Abar - dagger(A), 0),
    ]
    return [(name, dense_residual(M, margin), margin) for name, M, margin in checks]


def _reference_lattices():
    rng = np.random.default_rng(20240)
    seeded = [MomentumLattice(float(rng.uniform(-10, 10)), float(rng.uniform(0.01, 2.0)),
                              int(rng.integers(8, 161))) for _ in range(12)]
    return [MomentumLattice(0.0, 0.1, 64), square_well_lattice(1.0, 16)] + seeded


def _extreme_lattices():
    """Spacings and base momenta near both ends of the double range, on 1-3
    points, where the entries underflow, overflow or turn subnormal."""
    lattices = [MomentumLattice(p0, a, n) for p0, a in [(0.0, 1e-150), (0.0, 1e200),
                                                        (-1e300, 0.37), (-1e300, 1e200)]
                for n in (1, 2, 3)]
    return lattices + [MomentumLattice(0.0, 1e308, n) for n in (1, 2)]


class TestTableDrivenSuite:
    @pytest.mark.parametrize("lat", _reference_lattices(), ids=lambda lat: lat.descriptor())
    def test_bitwise_equal_to_hand_written_reference(self, lat):
        reports = verify_identity_suite(lat)
        expected = reference_checks(lat)
        got = [(r.identity_name, r.max_interior_residual, r.margin_rows)
               for r in reports[:len(expected)]]
        assert got == expected

    @pytest.mark.parametrize("lat", _reference_lattices()[:4] + _extreme_lattices(),
                             ids=lambda lat: lat.descriptor())
    def test_operators_bitwise_equal_to_reference(self, lat):
        # bytes, not values: a signed zero or a NaN payload counts as a difference;
        # at the extremes H's P*P overflows in both builds alike
        for name in ("A", "Abar", "D", "Dbar", "P", "X", "Q", "H", "I"):
            with np.errstate(over="ignore", invalid="ignore"):
                built, ref = build_operator(lat, name), reference_operator(lat, name)
            assert built.entries.tobytes() == ref.entries.tobytes(), name
            assert built.shift_radius == ref.shift_radius, name

    def test_shifts_and_position_read_no_momenta(self):
        # the last momentum 2e308 overflows, yet nothing but P and H needs it
        lat = MomentumLattice(0.0, 1e308, 3)
        for name in ("A", "Abar", "I", "D", "Dbar", "X", "Q"):
            assert build_operator(lat, name).entries.tobytes() == \
                reference_operator(lat, name).entries.tobytes(), name
        for name in ("P", "H"):
            with pytest.raises(ValueError, match=r"last momentum p0\+a\*\(n-1\) of the lattice "
                                                 r"p0=0,a=1e\+308,n=3 overflows"):
                build_operator(lat, name)

    def test_rows_with_a_margin_and_only_those_are_reported_in_table_order(self):
        reports = verify_identity_suite(MomentumLattice(0.0, 0.1, 16))
        table = [(name, margin) for name, _, margin in IDENTITIES if margin is not None]
        assert [(r.identity_name, r.margin_rows) for r in reports[:len(table)]] == table
        symbolic_only = {name for name, _, margin in IDENTITIES if margin is None}
        assert symbolic_only == {"QP_brace_expansion", "D_Dbar_commute_lemma"}
        assert [r.identity_name for r in reports[len(table):]] == [
            "P_hermitian", "X_hermitian", "Abar_is_A_adjoint", "A_adjoint_inner_product"]

    def test_table_margins_bound_the_rows_truncation_corrupts(self):
        # On dyadic lattices every float operation of a row is exact, so a
        # nonzero entry is truncation, not rounding.  The derived margin is the
        # smallest one whose interior rows are all exactly zero; the table's
        # margin may exceed it, never fall short of it.
        lattices = [MomentumLattice(p0, a, 16) for p0, a in ((0.0, 1.0), (0.25, 0.5),
                                                             (-3.0, 0.25), (1.5, 2.0))]
        derived = {}
        bounds = {name: momlat.algebra.margin(tree)[1]
                  for name, tree, margin in IDENTITY_TREES if margin is not None}
        for name, tree, margin in IDENTITY_TREES:
            if margin is None:
                continue
            derived[name] = 0
            for lat in lattices:
                bands = expression_matrix(tree, lat).bands
                m = 0
                while np.any(bands[:, m:lat.n_points - m]):
                    m += 1
                derived[name] = max(derived[name], m)
            assert derived[name] <= bounds[name] <= margin, (name, derived[name], margin)
        # only three rows have a nonzero boundary row at all, one each
        assert {name: m for name, m in derived.items() if m} == {
            "A_Abar_is_identity": 1, "Abar_A_is_identity": 1, "commutator_P_H_expanded": 1}

    def test_table_margins_cover_the_bound_of_the_margin_domain(self):
        # The bound is derived from each row's tree alone, for every lattice;
        # the table's margins are written by hand and may exceed it.
        # Every numeric row is held against it, the hermiticity rows' 0 too.
        rows = momlat.operators._NUMERIC_IDENTITIES
        bounds = {name: momlat.algebra.margin(tree)[1] for name, tree, _ in rows}
        assert list(bounds.values()) == [1] * 8 + [2] * 4 + [0] * 3
        for name, _, margin in rows:
            assert bounds[name] <= margin, (name, bounds[name], margin)
        assert momlat.algebra.margin("[X,P] + i") == (1, 1)
        for _, text, _ in IDENTITIES:
            assert momlat.algebra.margin(text) == momlat.algebra.margin(parse(text)), text


class TestParsedOnce:
    def test_run_path_parses_nothing(self, monkeypatch):
        def no_parse(text):
            raise AssertionError(f"parsed {text!r} on the run path")
        monkeypatch.setattr(momlat.algebra, "parse", no_parse)
        monkeypatch.setattr(momlat.operators, "parse", no_parse)
        assert all(check.zero for check in verify_symbolic_suite())
        lat = MomentumLattice(-1.0, 0.25, 16)
        assert len(verify_identity_suite(lat)) == 16
        for name in OPERATOR_NAMES:
            build_operator(lat, name)


def recording_memos(monkeypatch, module) -> list:
    """The list that every FoldMemo `module` makes from now on is added to."""
    made = []

    class Recording(momlat.algebra.FoldMemo):
        def __init__(self, visits):
            super().__init__(visits)
            made.append(self)

    monkeypatch.setattr(module, "FoldMemo", Recording)
    return made


def _shared_fold_lattices():
    """The golden lattices, the strict-xfail corner, and seeded lattices up
    to n = 2048."""
    rng = np.random.default_rng(1414)
    seeded = [MomentumLattice(float(rng.uniform(-10, 10)), float(rng.uniform(0.001, 2.0)), int(n))
              for n in rng.integers(8, 2049, size=5)]
    return [MomentumLattice(0.0, 0.1, 64), square_well_lattice(1.0, 16),
            square_well_lattice(1e308, 8, 1e308), MomentumLattice(-10.0, 20.0 / 1023, 1024),
            MomentumLattice(-10.0, 20.0 / 2047, 2048)] + seeded


class TestSharedFold:
    """The suites fold their rows as one DAG; a row folded alone, from its
    text parsed anew, in a fresh domain and with no memo, is the reference."""

    @pytest.mark.parametrize("lat", _shared_fold_lattices(), ids=lambda lat: lat.descriptor())
    def test_numeric_suite_equals_row_by_row_fold(self, monkeypatch, lat):
        memos = recording_memos(monkeypatch, momlat.operators)
        reports = verify_identity_suite(lat)
        expected = []
        for name, text, margin in IDENTITIES:
            if margin is not None:
                atoms = momlat.operators._LatticeAtoms(lat)
                value = atoms.matrix(momlat.algebra.fold(momlat.algebra.parse(text), atoms))
                expected.append((name, interior_residual(value, margin).hex(), margin))
        assert [(r.identity_name, r.max_interior_residual.hex(), r.margin_rows)
                for r in reports[:len(expected)]] == expected
        [memo] = memos
        assert not memo and not memo.values

    def test_symbolic_suite_equals_row_by_row_fold(self):
        expected = []
        for name, text, _ in IDENTITIES:
            nf = momlat.algebra.fold(momlat.algebra.parse(text), momlat.algebra._Exact(ATOMS))
            expected.append(SymbolicCheck(name, nf.is_zero, nf.term_count))
        assert verify_symbolic_suite() == expected

    def test_symbolic_suite_returns_a_fresh_list(self):
        expected = verify_symbolic_suite()
        checks = verify_symbolic_suite()
        assert checks is not expected
        checks[0] = SymbolicCheck("mutated", False, 1)
        checks.append(checks[1])
        del checks[1]
        assert verify_symbolic_suite() == expected
        assert [check.identity for check in expected] == [name for name, _, _ in IDENTITIES]

    def test_work_of_one_suite_call(self, monkeypatch):
        # row by row, the numeric suite did 30 banded products and built 93
        # results; the symbolic verdicts are certified at import, so a
        # symbolic suite call multiplies nothing
        counts = Counter()

        def count(cls, attr, key):
            original = getattr(cls, attr)

            def counted(*args):
                counts[key] += 1
                return original(*args)
            monkeypatch.setattr(cls, attr, counted)

        count(OperatorMatrix, "__matmul__", "banded products")
        count(OperatorMatrix, "__post_init__", "results")
        count(SymbolicOperator, "__mul__", "exact products")
        verify_identity_suite(MomentumLattice(0.0, 0.1, 96))
        assert counts == {"banded products": 26, "results": 83}
        counts.clear()
        verify_symbolic_suite()
        assert counts == {}

    def test_shifts_of_one_suite_call(self, monkeypatch):
        # the symbolic suite moves no operand past a shift: its verdicts
        # were certified at import
        calls = []
        shifted = momlat.algebra._shifted
        monkeypatch.setattr(momlat.algebra, "_shifted",
                            lambda terms, s: calls.append(s) or shifted(terms, s))
        verify_symbolic_suite()
        assert calls == []

    def test_rows_share_equal_subtrees(self):
        trees = {name: tree for name, tree, _ in IDENTITY_TREES}
        braced, expanded = trees["commutator_X_H_braced"], trees["commutator_X_H_expanded"]
        # "[X,H] + 2*i*P - ..." and "[X,H] + 2*i*P - ... - ...": one prefix node
        assert braced.left.left == momlat.algebra.parse("[X,H]")
        assert braced.left.left is expanded.left.left.left
        assert braced.left is expanded.left.left


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

    def test_constructor_copies_the_callers_array(self):
        lat = MomentumLattice(0.0, 1.0, 4)
        for bands in (np.ones((3, 4), dtype=complex), np.ones((3, 4))):
            M = OperatorMatrix(lat, bands, 1)
            assert bands.flags.writeable
            assert not np.shares_memory(bands, M.bands)
            bands[1, 2] = 7.0
            assert np.array_equal(M.bands, np.ones((3, 4)))
            assert M.bands.dtype == complex and not M.bands.flags.writeable

    def test_results_hold_read_only_bands_of_their_own(self):
        lat = MomentumLattice(-1.0, 0.5, 6)
        A, X = build_operator(lat, "A"), build_operator(lat, "X")
        results = [A + X, A - X, -A, A @ X, A.scaled(2.0), adjoint(X), to_matrix(ATOMS["H"], lat),
                   OperatorMatrix.from_dense(lat, X.entries, 1)]
        for M in results:
            assert M.bands.dtype == complex and not M.bands.flags.writeable
            assert not np.shares_memory(M.bands, A.bands)
            assert not np.shares_memory(M.bands, X.bands)

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


def band_rows(m, n):
    """Rows i whose column i+m is on an n-point lattice (test-local copy)."""
    return slice(min(n, max(0, -m)), max(0, n - max(0, m)))


def accumulated_product(L, R):
    """Reference: the banded product's bands as `out[...] += left * right`
    accumulated them, diagonal by diagonal in ascending m1."""
    n, r1, r2 = L.lattice.n_points, L.shift_radius, R.shift_radius
    r = r1 + r2
    out = np.zeros((2 * r + 1, n), dtype=complex)
    for m1 in range(-r1, r1 + 1):
        rows = band_rows(m1, n)
        left = L.bands[r1 + m1, None, rows]
        right = R.bands[:, rows.start + m1:rows.stop + m1]
        out[r + m1 - r2:r + m1 + r2 + 1, rows] += left * right
    return out


def one_row_apply(M, values):
    """Reference: an operator applied to one row of grid values with
    `out[rows] += band * values`, diagonal by diagonal."""
    n, r = M.lattice.n_points, M.shift_radius
    out = np.zeros(n, dtype=complex)
    for m in range(-r, r + 1):
        rows = band_rows(m, n)
        out[rows] += M.bands[r + m, rows] * values[rows.start + m:rows.stop + m]
    return out


# Reals a band or grid entry draws from besides scaled normals.
SPECIAL_REALS = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0)
FINITE_SPECIAL_REALS = (0.0, -0.0, 1.0, -1.0)


def special_values(rng, shape, specials=SPECIAL_REALS):
    """Complex values whose parts are, each with probability 1/3, one of the
    special reals, and otherwise a normal scaled by up to 10^+-8."""
    def part():
        normal = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        return np.where(rng.random(shape) < 1 / 3, rng.choice(specials, shape), normal)
    values = np.empty(shape, dtype=complex)  # parts set, not added: 1j * inf is nan
    values.real, values.imag = part(), part()
    return values


def quiet_nan_signs(values):
    """The complex values with every NaN part made the positive quiet NaN."""
    parts = np.array(values, dtype=complex).view(float)
    parts[np.isnan(parts)] = math.nan
    return parts.view(complex)


def special_banded(lattice, radius, rng, specials=SPECIAL_REALS):
    """An operator of the given radius with special values on every entry
    that the lattice holds, and zeros off it."""
    n = lattice.n_points
    bands = special_values(rng, (2 * radius + 1, n), specials)
    for m in range(-radius, radius + 1):
        rows = band_rows(m, n)
        bands[radius + m, :rows.start] = 0
        bands[radius + m, rows.stop:] = 0
    return OperatorMatrix(lattice, bands, radius)


class TestInPlaceAccumulation:
    """The banded product and `apply` add each diagonal into their output in
    place; the bits are those of the `+=` loops they replaced, on bands that
    hold inf, nan and signed zeros, and on lattices of n <= 2r, where some
    diagonals have no rows."""

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_product_bitwise_equal_to_accumulated_loop(self, seed, n, r1, r2):
        rng = np.random.default_rng(seed)
        lat = MomentumLattice(-1.0, 0.3, n)
        L, R = special_banded(lat, r1, rng), special_banded(lat, r2, rng)
        with np.errstate(invalid="ignore", over="ignore"):
            got = (L @ R).bands
            expected = accumulated_product(L, R)
        assert same_bits(got, expected)

    # A diagonal factor's product adds no two products, so only the sum's
    # 0 + x sets the sign of a zero: p_j = 0 at j = n // 2 and the negative
    # momenta and entries make products of -0.0, which must print as 0.0.
    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    def test_diagonal_factor_bitwise_equal_to_accumulated_loop(self, n):
        lat = MomentumLattice(-0.5 * (n // 2), 0.5, n)
        assert lat.momenta()[n // 2] == 0.0
        rng = np.random.default_rng(n)
        P, I = build_operator(lat, "P"), build_operator(lat, "I")
        for M in (build_operator(lat, "X"), build_operator(lat, "H"),
                  random_banded(lat, 2, rng), -random_banded(lat, 1, rng)):
            for c in (-1.5, complex(-0.0, 2.0), 0.0):
                for L, R in ((P, M), (M, P), (I.scaled(c), M), (M, I.scaled(c)), (P, P)):
                    assert same_bits((L @ R).bands, accumulated_product(L, R)), \
                        (L.shift_radius, R.shift_radius, c)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40), st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_apply_bitwise_equal_to_one_row_loop(self, seed, n, r):
        rng = np.random.default_rng(seed)
        lat = MomentumLattice(-1.0, 0.3, n)
        M = special_banded(lat, r, rng)
        values = special_values(rng, n)
        with np.errstate(invalid="ignore", over="ignore"):
            got = apply(M, GridFunction(lat, values)).values
            expected = one_row_apply(M, values)
        assert same_bits(got, expected)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40), st.integers(0, 4),
           st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_stacked_apply_equals_one_row_applies(self, seed, n, r, k):
        rng = np.random.default_rng(seed)
        lat = MomentumLattice(-1.0, 0.3, n)
        M = special_banded(lat, r, rng, FINITE_SPECIAL_REALS)
        finite = special_values(rng, (k, n), FINITE_SPECIAL_REALS)
        got = momlat.operators._apply_rows(M, finite)
        assert got.shape == (k, n)
        for row, values in zip(got, finite):
            assert same_bits(row, apply(M, GridFunction(lat, values)).values)
        M = special_banded(lat, r, rng)
        # with inf and nan: the same values, but a stack of several rows
        # takes numpy's strided add loop, which may pass on the other of
        # two NaN operands, so only the NaN's sign may differ
        stack = special_values(rng, (k, n))
        with np.errstate(invalid="ignore", over="ignore"):
            got = momlat.operators._apply_rows(M, stack)
            applied = [apply(M, GridFunction(lat, values)).values for values in stack]
        for row, single in zip(got, applied):
            assert same_bits(quiet_nan_signs(row), quiet_nan_signs(single))


def four_pair_adjoint_residual(lattice):
    """Reference: the suite's <f|A g> = <Abar f|g> check as it was, four
    pairs drawn and checked one at a time."""
    n = lattice.n_points
    A, Abar = build_operator(lattice, "A"), build_operator(lattice, "Abar")
    rng = np.random.default_rng(ADJOINT_SEED)
    worst = 0.0
    for _ in range(4):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f[0] = f[-1] = 0.0
        g[0] = g[-1] = 0.0
        gf, gg = GridFunction(lattice, f), GridFunction(lattice, g)
        lhs = inner_product(gf, GridFunction(lattice, one_row_apply(A, g)))
        rhs = inner_product(GridFunction(lattice, one_row_apply(Abar, f)), gg)
        worst = max(worst, abs(lhs - rhs))
    return worst


def adjoint_report(lattice):
    [report] = [r for r in verify_identity_suite(lattice)
                if r.identity_name == "A_adjoint_inner_product"]
    return report.max_interior_residual


class TestBatchedAdjointCheck:
    @given(st.integers(8, 300), st.floats(-1e3, 1e3), st.floats(-3.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_four_pair_loop(self, n, p0, log_a):
        lat = MomentumLattice(p0, 10.0 ** log_a, n)
        assert adjoint_report(lat).hex() == four_pair_adjoint_residual(lat).hex()

    def test_bitwise_equal_at_1e5_points(self):
        lat = MomentumLattice(-10.0, 20.0 / 99_999, 100_000)
        assert adjoint_report(lat).hex() == four_pair_adjoint_residual(lat).hex()

    @pytest.mark.parametrize("n", [8, 9, 1000])
    def test_one_draw_is_the_stream_of_sixteen(self, n):
        rng = np.random.default_rng(ADJOINT_SEED)
        sixteen = [rng.standard_normal(n) for _ in range(16)]
        draws = np.random.default_rng(ADJOINT_SEED).standard_normal((4, 4, n))
        assert same_bits(draws.reshape(16, n), np.array(sixteen))


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

    def test_suite_peak_within_its_per_point_model(self):
        # MAX_SUITE_POINTS is sized from a peak of ~784 bytes a point; the
        # batched adjoint check must not raise it
        n = 20_000
        lat = MomentumLattice(-10.0, 20.0 / (n - 1), n)
        verify_identity_suite(MomentumLattice(0.0, 0.1, 64))  # caches warmed
        tracemalloc.start()
        try:
            verify_identity_suite(lat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 800 * n
        assert 800 * MAX_SUITE_POINTS < 2 ** 30

    @pytest.mark.parametrize("lat", [MomentumLattice(0.0, 1e200, 16),
                                     MomentumLattice(1e300, 1e299, 16),
                                     square_well_lattice(1e-300, 8)],
                             ids=lambda lat: lat.descriptor())
    def test_overflow_rejected(self, lat):
        with pytest.raises(ValueError, match="overflowed") as err:
            verify_identity_suite(lat)
        assert lat.descriptor() in str(err.value)

    @pytest.mark.parametrize("lat,error", [(MomentumLattice(1e17, 1.0, 8), "1"),
                                           (MomentumLattice(1e16, 1.0, 8), "1"),
                                           (MomentumLattice(-1e17, 4.0, 16), "3"),
                                           (MomentumLattice(1e300, 0.1, 16), "1")],
                             ids=lambda x: x.descriptor() if isinstance(x, MomentumLattice) else x)
    def test_collapsed_momenta_rejected(self, lat, error):
        # the spacing is below the ulp of p0, so some p0 + j*a repeat a value: a
        # step of 0 reads an error of 1, and at -1e17 the steps of 0 and 16 read
        # |16 - 4| / 4 = 3; at p0=1e300 the entries would overflow too, but no
        # operator is built
        with pytest.raises(ValueError, match="unevenly spaced") as err:
            verify_identity_suite(lat)
        assert lat.descriptor() in str(err.value)
        assert f"relative spacing error {error} exceeds 2^-26" in str(err.value)

    @pytest.mark.parametrize("p0,a", [(1e17, 1.0), (1e14, 0.1)])
    def test_rejected_lattice_builds_no_operator(self, p0, a, monkeypatch):
        # the spacing rule runs before the fold, so a lattice at the cap is
        # refused in the memory of its momenta, not in the suite's ~800 bytes a point
        built = []
        check = OperatorMatrix.__post_init__

        def counted(op):
            built.append(op.shift_radius)
            check(op)

        monkeypatch.setattr(OperatorMatrix, "__post_init__", counted)
        lat = MomentumLattice(p0, a, MAX_SUITE_POINTS)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="unevenly spaced"):
                verify_identity_suite(lat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built == []
        assert peak < 64 * 2 ** 20
        verify_identity_suite(MomentumLattice(0.0, 0.1, 8))  # every operator passes the count
        assert built

    @pytest.mark.parametrize("lat,error", [(MomentumLattice(1e14, 0.1, 64), "0.094"),
                                           (MomentumLattice(3.2e12, 0.1, 64), "0.0039"),
                                           (MomentumLattice(1e8, 0.1, 64), "8.9e-08")],
                             ids=lambda x: x.descriptor() if isinstance(x, MomentumLattice) else x)
    def test_unevenly_spaced_momenta_rejected(self, lat, error):
        # p0 + j*a rounds to distinct but uneven steps: the ulp of p0 eats a's bits
        with pytest.raises(ValueError, match="unevenly spaced") as err:
            verify_identity_suite(lat)
        assert lat.descriptor() in str(err.value)
        assert f"relative spacing error {error} exceeds 2^-26" in str(err.value)

    @pytest.mark.parametrize("lat", [MomentumLattice(1e6, 0.1, 64),
                                     MomentumLattice(-10.0, 20.0 / 1023, 1024),
                                     MomentumLattice(0.0, 0.1, 224)],
                             ids=lambda lat: lat.descriptor())
    def test_rounded_but_even_spacing_accepted(self, lat):
        # spacing errors 9.3e-10, 1.8e-13 and 2.1e-14, below 2^-26 = 1.5e-8
        assert len(verify_identity_suite(lat)) == 16


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

    def test_constant_function_annihilated(self, monkeypatch):
        # the scan's one test function, swapped for a constant
        monkeypatch.setattr(momlat.operators, "unit_gaussian", np.ones_like)
        table = continuum_scan((0.5, 0.25, 0.125))
        assert all(r < 1e-13 for r in table.residuals)

    def test_zero_residual_has_no_log_row(self, monkeypatch):
        # the constant function's residuals are exactly 0: the scan returns
        # them with a nan slope, and neither writer takes their log
        monkeypatch.setattr(momlat.operators, "unit_gaussian", np.ones_like)
        table = continuum_scan((0.5, 0.25, 0.125))
        assert table.residuals == (0.0, 0.0, 0.0) and math.isnan(table.slope)
        for writer in (convergence_to_csv, convergence_to_dict):
            with pytest.raises(ValueError, match=r"^the residual at spacing 0\.5 is 0, which "
                                                 "has no logarithm"):
                writer(table)

    def test_validation(self):
        with pytest.raises(ValueError):
            continuum_scan((0.1, 0.05))
        with pytest.raises(ValueError):
            continuum_scan((0.05, 0.1, 0.2))
        # every spacing's lattice is checked before the ladder's order
        with pytest.raises(ValueError, match="^spacings must be positive$"):
            continuum_scan((0.1, -0.05, 0.025))
        for spacings in ((math.nan, 0.05, 0.025), (0.1, 0.05, math.nan), (math.inf, 0.05, 0.025)):
            with pytest.raises(ValueError, match="spacings must be finite"):
                continuum_scan(spacings)

    @pytest.mark.parametrize("spacing,message", [(0.0, "^spacings must be positive$"),
                                                 (-0.1, "^spacings must be positive$"),
                                                 (math.nan, "^spacings must be finite, got nan$"),
                                                 (math.inf, "^spacings must be finite, got inf$")],
                             ids=["zero", "negative", "nan", "inf"])
    def test_window_lattice_refuses_a_bad_spacing(self, spacing, message):
        # in the scan's wording, before any point count is computed from it
        with pytest.raises(ValueError, match=message):
            window_lattice(spacing, DEFAULT_WINDOW)

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

    def test_subnormal_scale_rejected(self, monkeypatch):
        # far out in the Gaussian's tail its largest sample is 5e-324, and the
        # residuals over it would read 10, 20 and 1
        with pytest.raises(ValueError, match=r"^the test function's largest value on the "
                                             r"lattice p0=38\.6,a=0\.4,n=17 is "
                                             r"4\.94065645841247e-324, below the smallest "
                                             "normal double"):
            continuum_scan((0.4, 0.2, 0.1), window=(38.6, 45.0))
        tiny = np.finfo(float).tiny
        monkeypatch.setattr(momlat.operators, "unit_gaussian", lambda p: np.full_like(p, tiny))
        table = continuum_scan((0.5, 0.25, 0.125))
        assert len(table.residuals) == 3
        monkeypatch.setattr(momlat.operators, "unit_gaussian",
                            lambda p: np.full_like(p, np.nextafter(tiny, 0)))
        with pytest.raises(ValueError, match="is 2.2250738585072e-308, below the smallest"):
            continuum_scan((0.5, 0.25, 0.125))

    def test_point_cap_rejected_before_allocation(self):
        # a window of MAX_CONTINUUM_POINTS unit steps needs the cap + 1 points;
        # one step less is the cap itself, whose lattice is built, never scanned
        cap = MAX_CONTINUUM_POINTS
        assert window_lattice(1.0, (0.0, cap - 1.0)).n_points == cap
        with pytest.raises(ValueError, match=f"spacing 1.0 needs {cap + 1} points to cover the "
                                             f"window 0.0:{float(cap)}, more than the limit "
                                             f"of {cap}"):
            window_lattice(1.0, (0.0, float(cap)))
        with pytest.raises(ValueError, match="spacing 1e-300 needs 1.6e[+]301 points"):
            window_lattice(1e-300, (-8.0, 8.0))
        with pytest.raises(ValueError, match="spacing 1e-320 needs inf points"):
            window_lattice(1e-320, (-8.0, 8.0))
        with pytest.raises(ValueError, match="spacing 0.1 needs inf points"):
            window_lattice(0.1, (-1e308, 1e308))

    def test_every_spacing_checked_before_the_first_scan(self, monkeypatch):
        sampled = []
        monkeypatch.setattr(momlat.operators, "unit_gaussian",
                            lambda p: sampled.append(p) or np.ones_like(p))
        spacings = (0.1, 0.05, 16.0 / MAX_CONTINUUM_POINTS)
        with pytest.raises(ValueError, match=f"{MAX_CONTINUUM_POINTS + 1} points"):
            continuum_scan(spacings)
        with pytest.raises(ValueError, match="strictly decreasing"):
            continuum_scan((0.1, 0.2, 0.05))
        assert sampled == []

    def test_ladder_total_checked_before_the_first_scan(self, monkeypatch):
        sampled = []
        monkeypatch.setattr(momlat.operators, "unit_gaussian",
                            lambda p: sampled.append(p) or np.ones_like(p))
        # each spacing fits the per-spacing cap; the three need 8137153 points
        spacings = (6e-6, 5.9e-6, 5.8e-6)
        assert all(window_lattice(a, DEFAULT_WINDOW).n_points <= MAX_CONTINUUM_POINTS
                   for a in spacings)
        with pytest.raises(ValueError, match="^the spacings need 8137153 points in all, more "
                                             "than the limit of 6000000 for one ladder$"):
            continuum_scan(spacings)
        # the per-spacing and order checks come first, with their own messages
        with pytest.raises(ValueError, match="strictly decreasing"):
            continuum_scan(spacings[::-1])
        with pytest.raises(ValueError, match=f"{MAX_CONTINUUM_POINTS + 1} points"):
            continuum_scan(spacings + (16.0 / MAX_CONTINUUM_POINTS,))
        assert sampled == []
        # a halving ladder down to the per-spacing cap fits, short of 3 points
        finest = 16.0 / (MAX_CONTINUUM_POINTS - 1)
        points = [window_lattice(finest * 2 ** j, DEFAULT_WINDOW).n_points for j in range(21)]
        assert points[0] == MAX_CONTINUUM_POINTS and points[-1] == 3
        assert sum(points[:-1]) <= MAX_CONTINUUM_LADDER_POINTS < sum(points)

    def test_window_lattice_covers(self):
        lat = window_lattice(0.1, (-8.0, 8.0))
        assert lat.n_points == 161
        assert lat.momenta()[0] == -8.0
        assert lat.momenta()[160] == pytest.approx(8.0)


def hand_written_scan(spacings, fn=unit_gaussian, window=DEFAULT_WINDOW):
    """The residuals and slope of `continuum_scan` on the test function fn,
    with [X,P] + i applied to each complex sample of fn by hand."""
    residuals = []
    for a in spacings:
        lat = window_lattice(a, window)
        f = sample(lat, fn)
        X, P = build_operator(lat, "X"), build_operator(lat, "P")
        g = apply(X, apply(P, f)).values - apply(P, apply(X, f)).values + 1j * f.values
        residuals.append(float(np.max(np.abs(g[1:-1])) / np.max(np.abs(f.values))))
    if all(r > 0 for r in residuals):
        return residuals, float(np.polyfit(np.log(spacings), np.log(residuals), 1)[0])
    return residuals, math.nan


def _hand_written_cases():
    """(spacings, test function, window): seeded ladders on seeded windows
    (widths 4-24, centres within 2.5 of the origin), the default and fine
    ladders, the bench's ladders on shifted windows, and the constant and
    smallest-normal test functions."""
    rng = np.random.default_rng(2612)
    cases = []
    for _ in range(12):
        ladder = tuple(sorted(rng.uniform(0.02, 0.8, size=int(rng.integers(3, 6))), reverse=True))
        centre, half = rng.uniform(-2.5, 2.5), rng.uniform(2.0, 12.0)
        cases.append((ladder, unit_gaussian, (centre - half, centre + half)))
    for shift in (-1.75, 0.5, 2.0):
        cases += [((0.4, 0.2, 0.1, 0.05), unit_gaussian, (-8.0 + shift, 8.0 + shift)),
                  ((0.4, 0.2, 0.1), unit_gaussian, (-8.0 + shift, 8.0 + shift))]
    tiny = np.finfo(float).tiny
    return cases + [((0.1, 0.05, 0.025, 0.0125), unit_gaussian, DEFAULT_WINDOW),
                    ((0.01, 0.001, 0.0001), unit_gaussian, DEFAULT_WINDOW),
                    ((0.5, 0.25, 0.125), np.ones_like, DEFAULT_WINDOW),
                    ((0.5, 0.25, 0.125), lambda p: np.full_like(p, tiny), DEFAULT_WINDOW)]


class TestContinuumFold:
    """`continuum_scan` folds "[X,P] + i" in the applied domain; the
    hand-written residual it replaced is the reference."""

    @pytest.mark.parametrize("spacings,fn,window", _hand_written_cases())
    def test_bits_equal_hand_written_residual(self, spacings, fn, window, monkeypatch):
        # the scan's one test function, swapped where a case has another
        monkeypatch.setattr(momlat.operators, "unit_gaussian", fn)
        table = continuum_scan(spacings, window=window)
        residuals, slope = hand_written_scan(spacings, fn, window)
        assert [r.hex() for r in table.residuals] == [r.hex() for r in residuals]
        assert table.slope.hex() == slope.hex()

    def test_scan_peak_within_its_per_point_model(self):
        # MAX_CONTINUUM_POINTS is sized from a peak of ~320 bytes a point
        n = 200_000
        a = 16.0 / (n - 1)
        continuum_scan((0.4, 0.2, 0.1))  # caches warmed
        tracemalloc.start()
        try:
            continuum_scan((4 * a, 2 * a, a))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 336 * n
        assert 336 * MAX_CONTINUUM_POINTS < 2 ** 30


_LEAVES = (*OPERATOR_NAMES, "i", "a", "2", "(1/2)", "3")
_FORMS = ("({} + {})", "({} - {})", "{} * {}", "[{},{}]", "{{{},{}}}", "({})^2")
# Divisors that the generator may also use: scalar subtrees, which every
# evaluator divides by, and operators, which only the exact engine may.
_SCALAR_DIVISORS = ("2", "(2*i)", "a^2")
_OPERATOR_DIVISORS = ("A", "(P+I)", "X")


def random_texts(count, seed, divisors=(), adjoint=False):
    """`count` seeded expression texts of depth at most 3 over the operator
    names, i, a and the literals 2, 1/2 and 3, with + - *, both brackets,
    squares, division by each of `divisors` and, if `adjoint`, adj(...),
    followed by every DEFINITIONS and IDENTITIES text."""
    rng = np.random.default_rng(seed)
    forms = _FORMS + tuple("({})/" + divisor for divisor in divisors) + ("adj({})",) * adjoint

    def text(depth):
        if depth == 0 or rng.random() < 0.3:
            return _LEAVES[rng.integers(len(_LEAVES))]
        return forms[rng.integers(len(forms))].format(text(depth - 1), text(depth - 1))
    return ([text(3) for _ in range(count)] + [text for _, text in DEFINITIONS]
            + [text for _, text, _ in IDENTITIES])


# Dyadic lattices: every entry and scalar of the texts below is a dyadic
# rational well inside double precision (entries below 2^33), so each
# evaluator computes it exactly, in whatever order it adds and multiplies.
_DYADIC_LATTICES = [MomentumLattice(p0, a, 40) for p0 in (0.0, 0.25, -3.0, 1.5)
                    for a in (1.0, 0.5, 0.25)]


class TestRandomExpressions:
    """Seeded expressions over the whole grammar, folded by each evaluator
    on dyadic lattices, where exact arithmetic makes their values agree
    (a zero's sign may differ between evaluators)."""

    TEXTS = random_texts(160, 2026)

    def test_applied_fold_equals_matrix_fold(self):
        rng = np.random.default_rng(26)
        for lat in _DYADIC_LATTICES:
            v = rng.integers(-3, 4, (3, 40)) + 1j * rng.integers(-3, 4, (3, 40))
            for text in self.TEXTS:
                tree = parse(text)
                atoms = momlat.operators._AppliedAtoms(lat)
                got = atoms.matrix(fold(tree, atoms)).map(v)
                expected = momlat.operators._apply_rows(expression_matrix(tree, lat), v)
                assert np.array_equal(got, expected), (text, lat.descriptor())

    @staticmethod
    def assert_matrix_fold_equals_normal_form(texts):
        for text in texts:
            tree = parse(text)
            margin = momlat.algebra.margin(tree)[1]
            assert 2 * margin < 40, text
            nf = normal_form(tree)
            for lat in _DYADIC_LATTICES:
                direct = expression_matrix(tree, lat).entries[margin:40 - margin]
                via_nf = to_matrix(nf, lat).entries[margin:40 - margin]
                assert np.array_equal(direct, via_nf), (text, lat.descriptor())

    def test_matrix_fold_equals_normal_form_inside_the_margin(self):
        self.assert_matrix_fold_equals_normal_form(self.TEXTS)

    def test_check_verdict_is_what_the_matrix_fold_reads(self):
        # E - (E's normal form as `check` prints it) is ZERO by construction,
        # and its fold reads exactly 0 inside its margin on every lattice; a
        # NONZERO E reads nonzero inside its own margin on at least one
        for text in self.TEXTS:
            nf = normal_form(text)
            zero = parse(f"({text}) - ({format_normal_form(nf)})")
            assert normal_form(zero).is_zero, text
            for tree, is_zero in ((zero, True), (parse(text), nf.is_zero)):
                margin = momlat.algebra.margin(tree)[1]
                assert 2 * margin < 40, text
                reads = [np.any(expression_matrix(tree, lat).bands[:, margin:40 - margin])
                         for lat in _DYADIC_LATTICES]
                assert not any(reads) if is_zero else any(reads), (text, is_zero)

    def test_scalar_divisors_agree_across_the_pillars(self):
        texts = random_texts(160, 2027, _SCALAR_DIVISORS)
        assert sum(")/" in text for text in texts[:160]) > 60
        self.assert_matrix_fold_equals_normal_form(texts)

    @pytest.mark.parametrize("divisor", _OPERATOR_DIVISORS)
    def test_operator_divisors_refused_by_both_folds(self, divisor):
        lat = _DYADIC_LATTICES[4]
        for text in self.TEXTS[:40]:
            tree = parse(f"({text})/{divisor}")
            with pytest.raises(ValueError, match="^division is only defined by nonzero "
                                                 "scalars$"):
                expression_matrix(tree, lat)
            with pytest.raises(ValueError, match="^division is only defined by nonzero "
                                                 "scalars$"):
                fold(tree, momlat.operators._AppliedAtoms(lat))

    def test_check_decides_a_divisor_by_its_normal_form(self):
        # 2*I is the scalar 2 to the exact engine, an operator to the folds
        assert normal_form("X/(2*I)") == normal_form("X/2")
        with pytest.raises(ValueError, match="division is only defined by nonzero scalars"):
            expression_matrix("X/(2*I)", _DYADIC_LATTICES[0])


class TestRandomAdjoints:
    """Seeded expressions with adjoints, across the two pillars: the lattice
    fold takes the conjugate transpose of a truncated matrix, the exact fold
    the adjoint of a normal form.  The applied domain folds only the
    continuum scan's own text, so these are not folded there."""

    TEXTS = random_texts(160, 2028, adjoint=True)

    def test_matrix_fold_equals_normal_form_inside_the_margin(self):
        assert sum("adj(" in text for text in self.TEXTS[:160]) >= 32  # a fifth
        TestRandomExpressions.assert_matrix_fold_equals_normal_form(self.TEXTS)

    def test_check_verdict_is_what_the_matrix_fold_reads(self):
        TestRandomExpressions.test_check_verdict_is_what_the_matrix_fold_reads(self)

    def test_lattice_adjoint_is_the_conjugate_transpose(self):
        # bitwise where E folds to a matrix; a scalar E folds to c*I and
        # adj(E) to conj(c)*I, which may differ from the conjugate of c*I
        # in the sign of a zero imaginary part
        for lat in (_DYADIC_LATTICES[5], MomentumLattice(-2.3, 0.37, 17)):
            atoms = momlat.operators._LatticeAtoms(lat)
            for text in self.TEXTS:
                got = expression_matrix(f"adj({text})", lat)
                expected = adjoint(expression_matrix(text, lat))
                same = (same_bits if isinstance(fold(parse(text), atoms), OperatorMatrix)
                        else np.array_equal)
                assert got.shift_radius == expected.shift_radius, text
                assert same(got.bands, expected.bands), (text, lat.descriptor())

    def test_an_adjoint_moves_the_margin_in_by_the_radius(self):
        # ({H,Dbar}*H)^2 has r = 10 and b = 9; its conjugate transpose differs
        # from the normal form's matrix on 16 rows at an end: more than b rows
        # and fewer than b + r
        text = "adj(({H,Dbar} * H)^2)"
        assert momlat.algebra.margin(text) == (10, 19)
        nf = normal_form(text)
        derived = 0
        for lat in _DYADIC_LATTICES:
            wrong = expression_matrix(text, lat).bands != to_matrix(nf, lat).bands
            while np.any(wrong[:, derived:40 - derived]):
                derived += 1
        assert derived == 16

    def test_double_adjoint_is_exactly_the_operator(self):
        for text in self.TEXTS:
            assert normal_form(f"adj(adj({text}))") == normal_form(text), text


# The exact algebra of the paper's position operator, with C = (A + Abar)/2,
# and the rows its truncated matrix gets wrong on the dyadic lattices:
# [X,P] = -iC, [C,X] = 0, [C,P] = i a^2 X and (aX)^2 + C^2 = 1; with
# b = X - iP, H = b^dagger b + C and H = P^2 + (1 - C^2)/a^2; and the
# Heisenberg equations i[H,P] = 2XC, i[H,X] = -(PC + CP), i[H,C] = a^2 (PX + XP).
_POSITION_ALGEBRA = (
    ("[X,P] + i*(A+Abar)/2", 0),
    ("[(A+Abar)/2, X]", 1),
    ("[(A+Abar)/2, P] - i*a^2*X", 0),
    ("a^2*X*X + ((A+Abar)/2)^2 - I", 1),
    ("(X + i*P)*(X - i*P) - (H - (A+Abar)/2)", 0),
    ("adj(X - i*P) - (X + i*P)", 0),
    ("H - (P*P + (I - ((A+Abar)/2)^2)/a^2)", 1),
    ("i*[H,P] - X*(A + Abar)", 1),
    ("i*[H,X] + (P*(A+Abar) + (A+Abar)*P)/2", 0),
    ("i*[H,(A+Abar)/2] - a^2*(P*X + X*P)", 2),
)


@pytest.mark.parametrize("text,derived", _POSITION_ALGEBRA)
def test_position_operator_algebra_is_zero_in_both_pillars(text, derived):
    # exactly ZERO, and on every dyadic lattice the fold reads exactly 0 on
    # the rows inside `derived`, which the margin bound never under-reads
    assert normal_form(text).is_zero
    rows = 0
    for lat in _DYADIC_LATTICES:
        bands = expression_matrix(text, lat).bands
        while np.any(bands[:, rows:40 - rows]):
            rows += 1
    assert rows == derived
    assert derived <= momlat.algebra.margin(text)[1]


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
