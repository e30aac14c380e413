import ast
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momlat.algebra import (
    ATOMS,
    Atom,
    BinOp,
    Bracket,
    ExpressionError,
    GaussianRational,
    IntLit,
    LaurentPoly,
    MAX_DEPTH,
    MAX_PRODUCT_WORK,
    Neg,
    IDENTITIES,
    Power,
    SymbolicOperator,
    format_normal_form,
    normal_form,
    parse,
    verify_symbolic_suite,
)
import momlat
from momlat.lattice import MomentumLattice
from momlat.operators import (
    build_operator,
    expression_matrix,
    interior_residual,
    to_matrix,
    verify_identity_suite,
)

GR = GaussianRational
ZERO = GR()
ONE = GR(Fraction(1))


class TestParse:
    def test_commutator_minus_product(self):
        node = parse("[A,P] - a*A")
        assert isinstance(node, BinOp) and node.op == "-"
        assert isinstance(node.left, Bracket) and node.left.kind == "commutator"
        assert isinstance(node.right, BinOp) and node.right.op == "*"

    def test_sum_of_powers(self):
        node = parse("X^2 + P^2")
        assert isinstance(node, BinOp) and node.op == "+"
        assert node.left == Power(Atom("X"), 2)
        assert node.right == Power(Atom("P"), 2)

    def test_unbalanced_bracket_position(self):
        with pytest.raises(ExpressionError) as err:
            parse("[X,[P,")
        assert err.value.position == 6

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError) as err:
            parse("A + B")
        assert err.value.position == 4
        assert "B" in str(err.value)

    def test_unexpected_character(self):
        with pytest.raises(ExpressionError) as err:
            parse("A ? P")
        assert err.value.position == 2

    def test_trailing_input(self):
        with pytest.raises(ExpressionError):
            parse("A P")

    def test_exponent_limit(self):
        parse("A^16")
        with pytest.raises(ExpressionError):
            parse("A^17")

    def test_anticommutator_and_unary_minus(self):
        node = parse("-{Q,P}")
        assert isinstance(node, Neg)
        assert node.operand == Bracket("anticommutator", Atom("Q"), Atom("P"))

    def test_whitespace_insignificant(self):
        assert parse(" [ A , P ] ") == parse("[A,P]")

    def test_nesting_limit(self):
        inner = MAX_DEPTH - 1  # the atom itself is one more level
        assert parse("(" * inner + "P" + ")" * inner) == Atom("P")
        with pytest.raises(ExpressionError, match="nesting") as err:
            parse("(" * MAX_DEPTH + "P" + ")" * MAX_DEPTH)
        assert err.value.position == MAX_DEPTH
        with pytest.raises(ExpressionError, match="nesting"):
            parse("[P," * 3000 + "A" + "]" * 3000)
        with pytest.raises(ExpressionError, match="nesting"):
            parse("-" * 3000 + "P")

    def test_tree_height_limit(self):
        with pytest.raises(ExpressionError, match="tree"):
            parse("+".join(["P"] * (MAX_DEPTH + 1)))
        with pytest.raises(ExpressionError, match="tree"):
            parse("*".join(["A"] * 3000))

    @pytest.mark.parametrize("text", ["+".join(["P"] * MAX_DEPTH),
                                      "-" * (MAX_DEPTH - 1) + "P",
                                      "(" * (MAX_DEPTH - 2) + "[A,P]" + ")" * (MAX_DEPTH - 2)])
    def test_deepest_accepted_expressions_fold(self, text):
        nf = normal_form(text)
        lat = MomentumLattice(0.0, 0.5, 8)
        resid = expression_matrix(text, lat) - to_matrix(nf, lat)
        assert interior_residual(resid, 1) < 1e-9


class TestNormalForm:
    def test_shift_momentum_identity_is_zero(self):
        assert normal_form("[A,P] - a*A").is_zero

    def test_shift_inverse_collapses(self):
        nf = normal_form("A*Abar")
        assert nf.items() == [((0, 0), LaurentPoly.constant(1))]

    def test_single_exchange_step(self):
        nf = normal_form("A*P")
        assert nf.coefficient(1, 1) == LaurentPoly.constant(1)
        assert nf.coefficient(0, 1) == LaurentPoly.monomial(1)
        assert nf.term_count == 2

    def test_position_squared_laurent_exponents(self):
        nf = normal_form("X^2")
        # the 1/(4a^2) factor shows up as the a-exponent -2 on every term
        assert nf.coefficient(0, 2).exponents() == [-2]
        assert nf.coefficient(0, 2) == LaurentPoly.monomial(-2, GR(Fraction(-1, 4)))
        assert nf.coefficient(0, 0) == LaurentPoly.monomial(-2, GR(Fraction(1, 2)))

    def test_self_commutator(self):
        assert normal_form("[P,P]").is_zero

    def test_division_by_operator_rejected(self):
        with pytest.raises(ValueError):
            normal_form("P / A")
        with pytest.raises(ValueError):
            normal_form("P / (A + Abar)")

    def test_division_by_zero_rejected(self):
        with pytest.raises(ValueError):
            normal_form("P / 0")
        with pytest.raises(ValueError):
            normal_form("P / (1 - 1)")

    def test_division_by_spacing_allowed(self):
        assert normal_form("(A - I)/a") == ATOMS["D"]

    def test_rendering(self):
        assert format_normal_form(normal_form("A*P")) == "(P+a)*A"
        assert format_normal_form(normal_form("[P,P]")) == "0"
        assert format_normal_form(normal_form("P^2 + 2*P + I")) == "P^2+2*P+1"
        assert format_normal_form(normal_form("[X,P]")) == "-1/2*i*A-1/2*i*Abar"
        assert format_normal_form(normal_form("D")) == "1/a*A-1/a"

    def test_pure_number_arithmetic(self):
        nf = normal_form("(3 - 2*i) * (3 + 2*i)")
        assert nf.items() == [((0, 0), LaurentPoly.constant(13))]


class TestSymbolicSuite:
    def test_all_identities_reduce_to_zero(self):
        checks = verify_symbolic_suite()
        assert len(checks) == len(IDENTITIES) == 14
        for check in checks:
            assert check.zero, check.identity
            assert check.normal_form_term_count == 0

    def test_cross_module_numeric_agreement(self):
        # every symbolically certified identity also holds numerically
        symbolic_names = {name for name, _, _ in IDENTITIES}
        reports = verify_identity_suite(MomentumLattice(0.0, 0.1, 64))
        shared = [r for r in reports if r.identity_name in symbolic_names]
        assert len(shared) == 12
        for r in shared:
            assert r.max_interior_residual < 1e-12, r.identity_name


def test_algebra_does_not_import_operators():
    # momlat/__init__.py re-exports every module, so the probe stands in an
    # empty package namespace and sees what importing momlat.algebra loads.
    code = ("import sys, types\n"
            "pkg = types.ModuleType('momlat')\n"
            f"pkg.__path__ = [{str(Path(momlat.__file__).parent)!r}]\n"
            "sys.modules['momlat'] = pkg\n"
            "import momlat.algebra\n"
            "print(sorted(m for m in sys.modules if m.startswith('momlat.')))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout)
    assert "momlat.algebra" in loaded
    assert "momlat.operators" not in loaded


# --- exact reference evaluation -------------------------------------------
# Independent oracle: evaluate expressions with matrices over the Gaussian
# rationals at an exact rational spacing, so agreement checks are exact.

def exact_scalar_matrix(c: GaussianRational, n):
    return [[c if r == col else ZERO for col in range(n)] for r in range(n)]


def exact_shift(m: int, n):
    return [[ONE if col == r + m else ZERO for col in range(n)] for r in range(n)]


def exact_matmul(M1, M2, n):
    out = [[ZERO] * n for _ in range(n)]
    for r in range(n):
        for k in range(n):
            if M1[r][k].is_zero:
                continue
            for col in range(n):
                if not M2[k][col].is_zero:
                    out[r][col] = out[r][col] + M1[r][k] * M2[k][col]
    return out


def exact_add(M1, M2, n, sign=1):
    s = GR(Fraction(sign))
    return [[M1[r][c] + s * M2[r][c] for c in range(n)] for r in range(n)]


def exact_eval(node, p0: Fraction, a: Fraction, n):
    if isinstance(node, Atom):
        if node.name == "i":
            return exact_scalar_matrix(GR(Fraction(0), Fraction(1)), n)
        if node.name == "a":
            return exact_scalar_matrix(GR(a), n)
        return exact_eval_normal(ATOMS[node.name], p0, a, n)
    if isinstance(node, IntLit):
        return exact_scalar_matrix(GR(Fraction(node.value)), n)
    if isinstance(node, Neg):
        M = exact_eval(node.operand, p0, a, n)
        return [[-v for v in row] for row in M]
    if isinstance(node, Power):
        out = exact_scalar_matrix(ONE, n)
        base = exact_eval(node.base, p0, a, n)
        for _ in range(node.exponent):
            out = exact_matmul(out, base, n)
        return out
    if isinstance(node, Bracket):
        left = exact_eval(node.left, p0, a, n)
        right = exact_eval(node.right, p0, a, n)
        lr = exact_matmul(left, right, n)
        rl = exact_matmul(right, left, n)
        return exact_add(lr, rl, n, sign=1 if node.kind == "anticommutator" else -1)
    if isinstance(node, BinOp):
        left = exact_eval(node.left, p0, a, n)
        right = exact_eval(node.right, p0, a, n)
        if node.op == "+":
            return exact_add(left, right, n)
        if node.op == "-":
            return exact_add(left, right, n, sign=-1)
        if node.op == "*":
            return exact_matmul(left, right, n)
        c = right[0][0]
        inv = exact_scalar_matrix(ONE / c, n)
        return exact_matmul(left, inv, n)
    raise TypeError(node)


def exact_laurent(poly: LaurentPoly, a: Fraction) -> GaussianRational:
    total = ZERO
    for exp, coeff in poly.items():
        total = total + coeff * GR(a ** exp)
    return total


def exact_eval_normal(op: SymbolicOperator, p0: Fraction, a: Fraction, n):
    out = [[ZERO] * n for _ in range(n)]
    for (k, m), poly in op.items():
        c = exact_laurent(poly, a)
        for r in range(n):
            col = r + m
            if 0 <= col < n:
                p = p0 + r * a
                out[r][col] = out[r][col] + c * GR(p ** k)
    return out


def tracked_radius(node) -> int:
    if isinstance(node, Atom):
        return {"P": 0, "I": 0, "i": 0, "a": 0, "H": 2}.get(node.name, 1)
    if isinstance(node, IntLit):
        return 0
    if isinstance(node, Neg):
        return tracked_radius(node.operand)
    if isinstance(node, Power):
        return node.exponent * tracked_radius(node.base)
    if isinstance(node, Bracket):
        return tracked_radius(node.left) + tracked_radius(node.right)
    if isinstance(node, BinOp):
        left, right = tracked_radius(node.left), tracked_radius(node.right)
        return left + right if node.op == "*" else max(left, right)
    raise TypeError(node)


ATOM_ST = st.sampled_from(["A", "Abar", "P", "X", "Q", "D", "Dbar", "I", "i", "a"])
LEAF_ST = st.one_of(ATOM_ST.map(Atom), st.integers(0, 3).map(IntLit))
EXPR_ST = st.recursive(
    LEAF_ST,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*"), sub, sub).map(lambda t: BinOp(*t)),
        st.tuples(st.sampled_from(["commutator", "anticommutator"]), sub, sub)
        .map(lambda t: Bracket(*t)),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: Power(*t)),
        sub.map(Neg),
    ),
    max_leaves=5,
)


class TestConfluenceAndHomomorphism:
    @given(EXPR_ST, EXPR_ST, EXPR_ST)
    @settings(max_examples=60, deadline=None)
    def test_multiplication_associative(self, e1, e2, e3):
        # rewriting order cannot matter: the exchange-rule closed form must
        # give an associative product on normal forms
        assume(tracked_radius(e1) + tracked_radius(e2) + tracked_radius(e3) <= 8)
        s1, s2, s3 = normal_form(e1), normal_form(e2), normal_form(e3)
        assert (s1 * s2) * s3 == s1 * (s2 * s3)

    @given(EXPR_ST, EXPR_ST, EXPR_ST)
    @settings(max_examples=40, deadline=None)
    def test_multiplication_distributes(self, e1, e2, e3):
        assume(tracked_radius(e1) + max(tracked_radius(e2), tracked_radius(e3)) <= 8)
        s1, s2, s3 = normal_form(e1), normal_form(e2), normal_form(e3)
        assert s1 * (s2 + s3) == s1 * s2 + s1 * s3
        assert (s2 + s3) * s1 == s2 * s1 + s3 * s1

    @given(EXPR_ST)
    @settings(max_examples=40, deadline=None)
    def test_exact_evaluation_homomorphism(self, e):
        radius = tracked_radius(e)
        assume(radius <= 4)
        n = 2 * radius + 3
        p0, a = Fraction(-1, 2), Fraction(1, 3)
        direct = exact_eval(e, p0, a, n)
        via_nf = exact_eval_normal(normal_form(e), p0, a, n)
        for r in range(radius, n - radius):
            assert direct[r] == via_nf[r], f"row {r} differs"

    def test_known_exchange_example_exact(self):
        p0, a, n = Fraction(0), Fraction(1, 4), 6
        direct = exact_eval(parse("A*P"), p0, a, n)
        via_nf = exact_eval_normal(normal_form("A*P"), p0, a, n)
        for r in range(1, n - 1):
            assert direct[r] == via_nf[r]

    @given(EXPR_ST)
    @settings(max_examples=60, deadline=None)
    def test_rendering_round_trips(self, e):
        # the printer must emit valid grammar that re-normalizes identically
        nf = normal_form(e)
        assume(all(k <= 16 and abs(m) <= 16 for (k, m), _ in nf.items()))
        assert normal_form(format_normal_form(nf)) == nf


# --- the flat integer engine against the per-term LaurentPoly product -------

def reference_product(x: SymbolicOperator, y: SymbolicOperator) -> list:
    """(P^k1 A^m1)(P^k2 A^m2) = P^k1 (P + m1 a)^k2 A^(m1+m2), expanded one pair
    of (k, m) coefficients at a time in LaurentPoly arithmetic."""
    out: dict = {}
    for (k1, m1), c1 in x.items():
        for (k2, m2), c2 in y.items():
            base = c1 * c2
            for i in range(k2 + 1):
                coeff = base * LaurentPoly.monomial(k2 - i, math.comb(k2, i) * m1 ** (k2 - i))
                key = (k1 + i, m1 + m2)
                out[key] = out.get(key, LaurentPoly()) + coeff
    return sorted((key, c) for key, c in out.items() if not c.is_zero)


def reference_sum(x: SymbolicOperator, y: SymbolicOperator, sign: int) -> list:
    out = dict(x.items())
    for key, c in y.items():
        out[key] = out.get(key, LaurentPoly()) + (c if sign > 0 else -c)
    return sorted((key, c) for key, c in out.items() if not c.is_zero)


FRACTION_ST = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))
LAURENT_ST = st.dictionaries(st.integers(-3, 3), st.builds(GR, FRACTION_ST, FRACTION_ST),
                             max_size=3).map(LaurentPoly)
OPERATOR_ST = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-3, 3)), LAURENT_ST,
                              max_size=5).map(SymbolicOperator)
DIVISOR_ST = st.sampled_from(["3", "5", "7", "i", "(-i)", "a", "(2*i*a^2)", "(3-2*i)"])


def assert_reduced(op: SymbolicOperator):
    assert op._den > 0
    assert all(c != (0, 0) for c in op._terms.values())
    assert math.gcd(op._den, *(x for c in op._terms.values() for x in c)) == 1


class TestFlatEngine:
    @given(OPERATOR_ST, OPERATOR_ST)
    @settings(max_examples=150, deadline=None)
    def test_product_matches_reference(self, x, y):
        assert (x * y).items() == reference_product(x, y)

    @given(OPERATOR_ST, OPERATOR_ST)
    @settings(max_examples=100, deadline=None)
    def test_sum_and_difference_match_reference(self, x, y):
        assert (x + y).items() == reference_sum(x, y, 1)
        assert (x - y).items() == reference_sum(x, y, -1)
        assert (x - x).is_zero and (x - x) == SymbolicOperator()

    @given(OPERATOR_ST)
    @settings(max_examples=60, deadline=None)
    def test_items_round_trip(self, x):
        assert SymbolicOperator(dict(x.items())) == x
        for (k, m), c in x.items():
            assert x.coefficient(k, m) == c
        assert x.term_count == len(x.items())

    @given(EXPR_ST, DIVISOR_ST)
    @settings(max_examples=80, deadline=None)
    def test_storage_is_reduced(self, e, divisor):
        assume(tracked_radius(e) <= 6)
        for op in (normal_form(e), normal_form(BinOp("/", e, parse(divisor)))):
            assert_reduced(op)
            if op.is_zero:
                assert op._den == 1

    @given(OPERATOR_ST, OPERATOR_ST)
    @settings(max_examples=60, deadline=None)
    def test_products_and_sums_stay_reduced(self, x, y):
        for op in (x, y, x * y, x + y, x - y, -x):
            assert_reduced(op)

    @pytest.mark.parametrize("texts", [
        ("X*X", "X^2", "H - P^2", "(2*X*X)/2", "X*(3*X)/3", "(X^2*a)/a"),
        ("P", "P/2 + P/2", "(6*P)/6", "(i*P)/i", "(P*(3-2*i))/(3-2*i)"),
        ("-2*i*P", "(6*P)/(3*i)", "2*(P/i)"),
        ("0", "P - P", "[P,P]", "(A*Abar - I)/7"),
        ("D", "(A - I)/a", "A/a - 1/a", "(2*A - 2*I)/(2*a)"),
    ])
    def test_routes_to_one_operator_compare_and_hash_equal(self, texts):
        ops = [normal_form(t) for t in texts]
        assert all(op == ops[0] for op in ops), texts
        assert len({hash(op) for op in ops}) == 1
        assert len(set(ops)) == 1

    def test_division_errors(self):
        with pytest.raises(ValueError, match="division is only defined by scalar coefficients"):
            normal_form("P / (i + P)")
        with pytest.raises(ValueError, match="only monomial coefficients are invertible"):
            normal_form("P / (1 + a)")


class TestWorkBudget:
    def test_counts_flat_term_pairs_over_one_call(self, monkeypatch):
        # H^2 multiplies 1 * |H| and then |H| * |H| flat term pairs, and the
        # product with P adds |H^2| * 1 more
        h, h2 = len(ATOMS["H"]._terms), len(normal_form("H^2")._terms)
        pairs = h + h * h + h2
        monkeypatch.setattr("momlat.algebra.MAX_PRODUCT_WORK", pairs)
        assert not normal_form("H^2*P").is_zero
        monkeypatch.setattr("momlat.algebra.MAX_PRODUCT_WORK", pairs - 1)
        with pytest.raises(ExpressionError, match=f"work limit of {pairs - 1} term pairs"):
            normal_form("H^2*P")
        # the budget is per call: the same expression twice fits each time
        monkeypatch.setattr("momlat.algebra.MAX_PRODUCT_WORK", pairs)
        normal_form("H^2*P")
        normal_form("H^2*P")

    def test_suite_and_large_products_fit(self):
        assert MAX_PRODUCT_WORK >= 1_500_000
        assert not normal_form("H^16*H^4").is_zero

    def test_too_large_product_rejected_before_it_starts(self):
        with pytest.raises(ExpressionError, match="work limit") as err:
            normal_form("H^16*H^16")
        assert err.value.position is None


class TestMatrixEvaluation:
    def test_atoms_match_builders(self):
        lat = MomentumLattice(-0.5, 0.25, 10)
        for name in ("A", "Abar", "P", "X", "Q", "D", "Dbar", "I"):
            sym = to_matrix(ATOMS[name], lat)
            num = build_operator(lat, name)
            assert np.allclose(sym.entries, num.entries, atol=1e-12), name

    def test_composite_atom_matches_builder_interior(self):
        # H is a product, so truncation corrupts its boundary rows: the
        # normal-form evaluation agrees on interior rows only (margin 2)
        lat = MomentumLattice(-0.5, 0.25, 10)
        resid = to_matrix(ATOMS["H"], lat) - build_operator(lat, "H")
        assert interior_residual(resid, 2) < 1e-12
        assert interior_residual(resid, 0) > 1.0

    def test_expression_matrix_matches_normal_form(self):
        lat = MomentumLattice(0.0, 0.2, 16)
        for text in ("[X,H] + 2*i*P", "(i*a/2)*{Q,P}", "A*P*Abar", "X^2 - H"):
            e = parse(text)
            direct = expression_matrix(e, lat)
            via_nf = to_matrix(normal_form(e), lat)
            resid = direct - via_nf
            margin = max(direct.shift_radius, via_nf.shift_radius)
            scale = max(1.0, float(np.max(np.abs(direct.entries))))
            assert interior_residual(resid, margin) < 1e-12 * scale, text

    def test_division_by_scalar_matrix(self):
        lat = MomentumLattice(0.0, 0.5, 8)
        halved = expression_matrix("P / 2", lat)
        P = build_operator(lat, "P")
        assert np.allclose(halved.entries, P.entries / 2)

    def test_division_by_operator_matrix_rejected(self):
        lat = MomentumLattice(0.0, 0.5, 8)
        with pytest.raises(ValueError):
            expression_matrix("P / A", lat)


class TestScalars:
    def test_gaussian_arithmetic(self):
        x = GR(Fraction(1, 2), Fraction(3))
        y = GR(Fraction(2), Fraction(-1))
        assert (x * y).re == Fraction(4)
        assert (x * y).im == Fraction(11, 2)
        assert (x / y * y) == x
        with pytest.raises(ZeroDivisionError):
            x / ZERO

    def test_laurent_inverse(self):
        mono = LaurentPoly.monomial(2, GR(Fraction(3)))
        inv = mono.inverse()
        assert mono * inv == LaurentPoly.constant(1)
        with pytest.raises(ValueError):
            (LaurentPoly.constant(1) + LaurentPoly.monomial(1)).inverse()

    def test_laurent_evaluate(self):
        poly = LaurentPoly({-2: GR(Fraction(-1, 4)), 1: GR(Fraction(0), Fraction(2))})
        val = poly.evaluate(0.5)
        assert val == pytest.approx(-1.0 + 1j)

    @given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8),
           st.integers(-8, 8), st.integers(1, 5), st.integers(1, 5))
    def test_gaussian_field_axioms(self, ar, ai, br, bi, aq, bq):
        x = GR(Fraction(ar, aq), Fraction(ai, aq))
        y = GR(Fraction(br, bq), Fraction(bi, bq))
        assert x + y == y + x
        assert x * y == y * x
        if not y.is_zero:
            assert (x / y) * y == x
