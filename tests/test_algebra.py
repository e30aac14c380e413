import ast
import math
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bits import same_bits
from momlat import algebra, operators
from momlat.algebra import (
    ATOM_NAMES,
    ATOMS,
    DEFINITIONS,
    Adjoint,
    OPERATOR_NAMES,
    Atom,
    BinOp,
    Bracket,
    ExpressionError,
    IntLit,
    MAX_DEPTH,
    MAX_PRODUCT_WORK,
    Neg,
    IDENTITIES,
    OP_ONE,
    Power,
    SymbolicOperator,
    format_normal_form,
    normal_form,
    parse,
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
from test_operators import _POSITION_ALGEBRA

@dataclass(frozen=True)
class GQ:
    """Test-local Gaussian rational with the arithmetic the exact references
    need; independent of the engine's flat integer arithmetic."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other):
        return GQ(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __mul__(self, other):
        return GQ(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        return GQ((self.re * other.re + self.im * other.im) / norm,
                  (self.im * other.re - self.re * other.im) / norm)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


ZERO = GQ()
ONE = GQ(Fraction(1))


def flat(op: SymbolicOperator) -> dict:
    """The operator's flat map read as {(k, m, e): GQ}, in storage order."""
    den = op._den
    return {key: GQ(Fraction(re, den), Fraction(im, den)) for key, (re, im) in op._terms.items()}


def from_flat(terms: dict) -> SymbolicOperator:
    """The operator with the flat map {(k, m, e): GQ}, stored as the engine
    stores its results: numerators over the lcm of the denominators, reduced."""
    den = math.lcm(1, *(x.denominator for c in terms.values() for x in (c.re, c.im)))
    return algebra._operator(*algebra._reduced(
        {key: (int(c.re * den), int(c.im * den)) for key, c in terms.items()}, den))


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

    def test_adjoint_primary(self):
        assert parse("adj(X) - X") == BinOp("-", Adjoint(Atom("X")), Atom("X"))
        assert parse("adj((P))^2") == Power(Adjoint(Atom("P")), 2)
        with pytest.raises(ExpressionError,
                           match=r"^expected '\)', found end of input at offset 5$"):
            parse("adj(X")
        # without its '(' the name is no primary: an unknown identifier
        for text in ("adj X", "adj", "adj + P", "adj[X,P]"):
            with pytest.raises(ExpressionError, match="^unknown identifier 'adj' at offset 0$"):
                parse(text)

    def test_unexpected_character(self):
        with pytest.raises(ExpressionError) as err:
            parse("A ? P")
        assert err.value.position == 2

    @pytest.mark.parametrize("text,offset", [
        ("P^²", 2),         # superscript two: a Unicode digit, not [0-9]
        ("٣", 0),           # Arabic-Indic three
        ("P^٣", 2),
        ("Ａ", 0),           # fullwidth A: a Unicode letter, not [A-Za-z]
        ("P²", 1),          # a name stops at the first non-ASCII character
        ("A + xé", 5),
    ])
    def test_only_ascii_digits_and_letters(self, text, offset):
        with pytest.raises(ExpressionError) as err:
            parse(text)
        assert err.value.position == offset
        assert str(err.value) == f"unexpected character {text[offset]!r} at offset {offset}"

    def test_unicode_whitespace_separates(self):
        assert parse("A\u00a0*\u2003P\n") == parse("A*P")

    def test_trailing_input(self):
        with pytest.raises(ExpressionError):
            parse("A P")

    def test_trailing_input_reported_before_tree_height(self):
        text = "+".join(["P"] * (MAX_DEPTH + 1))
        with pytest.raises(ExpressionError, match="unexpected trailing input '\\)'") as err:
            parse(text + ")")
        assert err.value.position == len(text)

    def test_exponent_limit(self):
        parse("A^16")
        assert parse("A^" + "0" * 5000 + "16") == parse("A^16")
        with pytest.raises(ExpressionError):
            parse("A^17")

    @pytest.mark.parametrize("exponent,shown", [("0017", "17"), ("9" * 5000, "9" * 5000),
                                                ("0" * 5000 + "17", "17")])
    def test_exponent_judged_by_its_digits(self, exponent, shown):
        # longer than int() reads by default, yet rejected with the limit's message
        with pytest.raises(ExpressionError) as err:
            parse("A^" + exponent)
        assert str(err.value) == f"exponent {shown} exceeds the limit 16 at offset 2"

    def test_integer_literal_limit(self):
        longest = "9" * algebra.MAX_LITERAL_DIGITS
        assert parse(longest) == IntLit(int(longest))
        assert parse("0" * 5000 + "7") == IntLit(7)
        with pytest.raises(ExpressionError) as err:
            parse("P*" + "0" * 10 + "1" + longest)
        assert str(err.value) == ("integer literal of 4301 digits exceeds the limit of 4300 "
                                  "digits at offset 2")

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
        assert flat(nf) == {(0, 0, 0): ONE}

    def test_single_exchange_step(self):
        nf = normal_form("A*P")
        assert flat(nf) == {(1, 1, 0): ONE, (0, 1, 1): ONE}
        assert nf.term_count == 2

    def test_position_squared_laurent_exponents(self):
        nf = normal_form("X^2")
        # the 1/(4a^2) factor shows up as the a-exponent -2 on every term
        assert flat(nf) == {(0, 2, -2): GQ(Fraction(-1, 4)), (0, 0, -2): GQ(Fraction(1, 2)),
                            (0, -2, -2): GQ(Fraction(-1, 4))}

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
        assert flat(nf) == {(0, 0, 0): GQ(Fraction(13))}


class TestSymbolicSuite:
    def test_parsed_tables_are_the_text_tables_parsed(self):
        assert list(algebra.IDENTITY_TREES) == [(name, parse(text), margin)
                                                for name, text, margin in IDENTITIES]
        assert list(algebra.DEFINITION_TREES.items()) == [(name, parse(text))
                                                          for name, text in DEFINITIONS]

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
            "print(sorted(m for m in sys.modules if m.startswith('momlat.') or m == 'numpy'))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout)
    assert "momlat.algebra" in loaded
    assert "momlat.operators" not in loaded
    # numpy-free, so a command that needs only the exact engine need not load it
    assert "numpy" not in loaded


# --- exact reference evaluation -------------------------------------------
# Independent oracle: evaluate expressions with matrices over the Gaussian
# rationals at an exact rational spacing, so agreement checks are exact.

def exact_scalar_matrix(c: GQ, n):
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
    s = GQ(Fraction(sign))
    return [[M1[r][c] + s * M2[r][c] for c in range(n)] for r in range(n)]


def exact_eval(node, p0: Fraction, a: Fraction, n):
    if isinstance(node, Atom):
        if node.name == "i":
            return exact_scalar_matrix(GQ(Fraction(0), Fraction(1)), n)
        if node.name == "a":
            return exact_scalar_matrix(GQ(a), n)
        return exact_eval_normal(ATOMS[node.name], p0, a, n)
    if isinstance(node, IntLit):
        return exact_scalar_matrix(GQ(Fraction(node.value)), n)
    if isinstance(node, Neg):
        M = exact_eval(node.operand, p0, a, n)
        return [[-v for v in row] for row in M]
    if isinstance(node, Adjoint):
        M = exact_eval(node.operand, p0, a, n)
        return [[GQ(M[c][r].re, -M[c][r].im) for c in range(n)] for r in range(n)]
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


def exact_eval_normal(op: SymbolicOperator, p0: Fraction, a: Fraction, n):
    out = [[ZERO] * n for _ in range(n)]
    for (k, m, e), c in flat(op).items():
        c = c * GQ(a ** e)
        for r in range(n):
            col = r + m
            if 0 <= col < n:
                p = p0 + r * a
                out[r][col] = out[r][col] + c * GQ(p ** k)
    return out


def render_tree(node) -> str:
    """Text that parses back to the tree: every operand in parentheses, which
    add no level to the tree."""
    if isinstance(node, Atom):
        return node.name
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, Neg):
        return f"-({render_tree(node.operand)})"
    if isinstance(node, Power):
        return f"({render_tree(node.base)})^{node.exponent}"
    if isinstance(node, Bracket):
        left, right = render_tree(node.left), render_tree(node.right)
        return f"[{left},{right}]" if node.kind == "commutator" else f"{{{left},{right}}}"
    return f"({render_tree(node.left)}){node.op}({render_tree(node.right)})"


def tree_height(node) -> int:
    if isinstance(node, (Atom, IntLit)):
        return 1
    if isinstance(node, Neg):
        return 1 + tree_height(node.operand)
    if isinstance(node, Power):
        return 1 + tree_height(node.base)
    return 1 + max(tree_height(node.left), tree_height(node.right))


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


class TestFoldMemo:
    @given(st.lists(EXPR_ST, min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_memoized_fold_equals_tree_by_tree(self, exprs):
        # rows that share subtrees: each expression, each times the next, and
        # the commutator of the last with the first
        rows = [*exprs, *(BinOp("*", x, y) for x, y in zip(exprs, exprs[1:])),
                Bracket("commutator", exprs[-1], exprs[0])]
        assume(all(algebra.margin(row)[0] <= 8 for row in rows))
        trees = algebra._interned(rows)
        assert trees == rows
        visits = algebra.shared_visits(trees)
        exact, memo = algebra._Exact(ATOMS), algebra.FoldMemo(visits)
        assert [algebra.fold(tree, exact, memo) for tree in trees] == \
            [normal_form(row) for row in rows]
        assert not memo and not memo.values
        lat = MomentumLattice(-0.5, 0.25, 12)
        atoms, memo = operators._LatticeAtoms(lat), algebra.FoldMemo(visits)
        assert [atoms.matrix(algebra.fold(tree, atoms, memo)).bands.tobytes()
                for tree in trees] == [expression_matrix(row, lat).bands.tobytes()
                                       for row in rows]
        assert not memo and not memo.values

    def test_interned_trees_share_equal_subtrees(self):
        first, second = algebra._interned([parse("[X,H] + P"), parse("[X,H]*P")])
        assert first.left is second.left
        # one fold visits [X,H] once from each parent; the atoms are not memoized
        assert algebra.shared_visits([first, second]) == {id(first.left): 2}
        assert algebra.shared_visits([first, first]) == {id(first): 2}


class TestConfluenceAndHomomorphism:
    @given(EXPR_ST, EXPR_ST, EXPR_ST)
    @settings(max_examples=60, deadline=None)
    def test_multiplication_associative(self, e1, e2, e3):
        # rewriting order cannot matter: the exchange-rule closed form must
        # give an associative product on normal forms
        assume(algebra.margin(e1)[0] + algebra.margin(e2)[0] + algebra.margin(e3)[0] <= 8)
        s1, s2, s3 = normal_form(e1), normal_form(e2), normal_form(e3)
        assert (s1 * s2) * s3 == s1 * (s2 * s3)

    @given(EXPR_ST, EXPR_ST, EXPR_ST)
    @settings(max_examples=40, deadline=None)
    def test_multiplication_distributes(self, e1, e2, e3):
        assume(algebra.margin(e1)[0] + max(algebra.margin(e2)[0], algebra.margin(e3)[0]) <= 8)
        s1, s2, s3 = normal_form(e1), normal_form(e2), normal_form(e3)
        assert s1 * (s2 + s3) == s1 * s2 + s1 * s3
        assert (s2 + s3) * s1 == s2 * s1 + s3 * s1

    @given(EXPR_ST)
    @settings(max_examples=40, deadline=None)
    def test_exact_evaluation_homomorphism(self, e):
        radius, b = algebra.margin(e)
        assume(radius <= 4)
        n = 2 * radius + 3
        p0, a = Fraction(-1, 2), Fraction(1, 3)
        direct = exact_eval(e, p0, a, n)
        via_nf = exact_eval_normal(normal_form(e), p0, a, n)
        for r in range(b, n - b):
            assert direct[r] == via_nf[r], f"row {r} differs"

    @pytest.mark.parametrize("tree", [
        *(pytest.param(tree, id=name) for name, tree, _ in operators._NUMERIC_IDENTITIES),
        *(pytest.param(parse(text), id=text) for text, _ in _POSITION_ALGEBRA)])
    def test_identities_are_exact_zeros_inside_the_margin(self, tree):
        """Every row inside `algebra.margin` of an identity is exactly 0 on a
        lattice whose spacing 1/3 no double holds.  `exact_eval` evaluates a
        composite atom as its normal form's matrix, so this checks margin's
        rules above the atoms, not the truncated fold of each atom."""
        radius, b = algebra.margin(tree)
        n = 2 * radius + 3
        rows = exact_eval(tree, Fraction(-1, 2), Fraction(1, 3), n)[b:n - b]
        assert rows
        assert all(v.is_zero for row in rows for v in row)

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
        assume(all(k <= 16 and abs(m) <= 16 for k, m, _ in nf._terms))
        assert normal_form(format_normal_form(nf)) == nf

    @given(EXPR_ST)
    @settings(max_examples=100, deadline=None)
    def test_parser_counts_tree_height(self, e):
        # the height the parser counts while it builds the tree is the
        # height a walk of the finished tree counts
        text = render_tree(e)
        assert parse(text) == e
        assert algebra._Parser(text).parse_expr() == (e, tree_height(e))


# --- the flat integer engine against a per-term reference product -----------

def nonzero(out: dict) -> dict:
    return {key: c for key, c in out.items() if not c.is_zero}


def reference_product(x: SymbolicOperator, y: SymbolicOperator) -> dict:
    """(P^k1 A^m1)(P^k2 A^m2) = P^k1 (P + m1 a)^k2 A^(m1+m2), expanded one pair
    of flat terms at a time in Gaussian-rational arithmetic, as {(k, m, e): GQ}."""
    out: dict = {}
    for (k1, m1, e1), g1 in flat(x).items():
        for (k2, m2, e2), g2 in flat(y).items():
            for i in range(k2 + 1):
                coeff = g1 * g2 * GQ(Fraction(math.comb(k2, i) * m1 ** (k2 - i)))
                key = (k1 + i, m1 + m2, e1 + e2 + k2 - i)
                out[key] = out.get(key, ZERO) + coeff
    return nonzero(out)


def reference_sum(x: SymbolicOperator, y: SymbolicOperator, sign: int) -> dict:
    out = flat(x)
    for key, g in flat(y).items():
        out[key] = out.get(key, ZERO) + (g if sign > 0 else -g)
    return nonzero(out)


FRACTION_ST = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))
MIXED_ST = st.builds(GQ, FRACTION_ST, FRACTION_ST)
GAUSSIAN_ST = st.one_of(
    st.builds(GQ, FRACTION_ST),                              # real
    st.builds(lambda im: GQ(Fraction(0), im), FRACTION_ST),  # imaginary
    MIXED_ST,                                                # mixed
)


def operand_st(max_k: int, coefficient=GAUSSIAN_ST):
    """Operators with P powers up to max_k, shifts -3..3 and a-exponents
    -3..3: up to five (k, m) coefficients of up to three terms each."""
    laurent = st.dictionaries(st.integers(-3, 3), coefficient, max_size=3)
    return st.dictionaries(st.tuples(st.integers(0, max_k), st.integers(-3, 3)), laurent,
                           max_size=5).map(lambda terms: from_flat(
                               {(k, m, e): c for (k, m), poly in terms.items()
                                for e, c in poly.items()}))


OPERATOR_ST = operand_st(3, MIXED_ST)
DIVISOR_ST = st.sampled_from(["3", "5", "7", "i", "(-i)", "a", "(2*i*a^2)", "(3-2*i)"])


def ordered_reference_product(x: SymbolicOperator, y: SymbolicOperator) -> dict:
    """x*y as {(k, m, e): GQ}, expanded one pair of flat terms at a time with
    math.comb over Fractions, its entries in the order the product stores
    them: the left operand's shift groups in order of first appearance, then
    the right terms, the P powers of (P + m1 a)^k2 and the group's left terms.
    An entry keeps the place where it first arose, even if it cancels there."""
    groups: dict = {}
    for (k1, m1, e1), g1 in flat(x).items():
        groups.setdefault(m1, []).append((k1, e1, g1))
    out: dict = {}
    for m1, left in groups.items():
        for (k2, m2, e2), g2 in flat(y).items():
            # with no shift, (P + 0 a)^k2 is P^k2 alone
            for i in range(k2 + 1) if m1 else (k2,):
                f = GQ(Fraction(math.comb(k2, i) * m1 ** (k2 - i)))
                for k1, e1, g1 in left:
                    key = (k1 + i, m1 + m2, e1 + e2 + k2 - i)
                    out[key] = out.get(key, ZERO) + g1 * g2 * f
    return nonzero(out)


ORDERED_OPERAND_ST = st.one_of(
    operand_st(0),                                           # no P: the unshifted route
    operand_st(3),
    st.builds(lambda e, c: from_flat({(0, 0, e): c}),
              st.integers(-3, 3), GAUSSIAN_ST),              # one scalar term
)


def assert_reduced(op: SymbolicOperator):
    assert op._den > 0
    assert all(c != (0, 0) for c in op._terms.values())
    assert math.gcd(op._den, *(x for c in op._terms.values() for x in c)) == 1


class TestFlatEngine:
    @given(OPERATOR_ST, OPERATOR_ST)
    @settings(max_examples=150, deadline=None)
    def test_product_matches_reference(self, x, y):
        assert flat(x * y) == reference_product(x, y)

    @given(ORDERED_OPERAND_ST, ORDERED_OPERAND_ST)
    @settings(max_examples=300, deadline=None)
    def test_product_matches_ordered_reference(self, x, y):
        # evaluate sums each (k, m) in storage order, and a product's order
        # within a (k, m) follows the whole order of its operands, so the
        # whole order is pinned, not only the order within each (k, m)
        product = x * y
        expected = ordered_reference_product(x, y)
        got = flat(product)
        assert got == expected
        assert list(got) == list(expected)

    @given(OPERATOR_ST, OPERATOR_ST)
    @settings(max_examples=100, deadline=None)
    def test_sum_and_difference_match_reference(self, x, y):
        assert flat(x + y) == reference_sum(x, y, 1)
        assert flat(x - y) == reference_sum(x, y, -1)
        assert (x - x).is_zero and (x - x) == algebra.OP_ZERO

    @given(OPERATOR_ST)
    @settings(max_examples=60, deadline=None)
    def test_term_count_counts_distinct_coefficients(self, x):
        assert x.term_count == len({(k, m) for k, m, _ in flat(x)})

    @given(EXPR_ST, DIVISOR_ST)
    @settings(max_examples=80, deadline=None)
    def test_storage_is_reduced(self, e, divisor):
        assume(algebra.margin(e)[0] <= 6)
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


# Flat term pairs of one normal_form call of each IDENTITIES row.
IDENTITY_PAIRS = {
    "A_Abar_is_identity": 1, "Abar_A_is_identity": 1, "commutator_A_P": 3,
    "commutator_Abar_P": 3, "commutator_D_P": 4, "commutator_Dbar_P": 4, "commutator_X_P": 8,
    "H_shift_form": 10, "commutator_X_H_braced": 30, "commutator_X_H_expanded": 28,
    "commutator_P_H_braced": 28, "commutator_P_H_expanded": 22, "QP_brace_expansion": 20,
    "D_Dbar_commute_lemma": 8,
}
# One ZERO expression of each symbolic_check group of the benchmark, in the
# order of its group table, and its pairs.
BENCH_GROUP_PAIRS = [
    ("(-7/a)*[Dbar,P]*P^3-((-7/a)*(((I-Abar)/a)*P-P*((I-Abar)/a))*P^2*P)", 18),
    ("(1*i)*Abar^5-((1*i)*(I-a*Dbar)^3*Abar^2)", 14),
    ("(3)*[X,P]*X^3-((3)*(((D+Dbar)/(2*i))*P-P*((A-Abar)/(2*i*a)))*(-(i/2)*(D+Dbar))^2*X)",
     53),
    ("(3)*[X,H]*H^2-((3)*(-2*i*P+(i*a/2)*{Q,P})*(P^2-(1/(4*a^2))*(A-Abar)^2)*H)", 196),
    ("(-1*i)*X^10-((-1*i)*(-(i/2)*(D+Dbar))^5*X^5)", 221),
    ("(3*a)*[P,H]*H^3-((3*a)*(P*H-H*P)*(X^2+P^2)^2*H)", 319),
    ("(1/a)*H^6-((1/a)*(X*X+P*P)^3*H^3)", 2422),
]


class TestWorkBudget:
    def test_counts_flat_term_pairs_over_one_call(self, monkeypatch):
        # H^2 multiplies |H| * |H| flat term pairs, its base into itself, and
        # the product with P adds |H^2| * 1 more
        h, h2 = len(ATOMS["H"]._terms), len(normal_form("H^2")._terms)
        pairs = h * h + h2
        monkeypatch.setattr("momlat.algebra.MAX_PRODUCT_WORK", pairs)
        assert not normal_form("H^2*P").is_zero
        monkeypatch.setattr("momlat.algebra.MAX_PRODUCT_WORK", pairs - 1)
        with pytest.raises(ExpressionError, match=f"work limit of {pairs - 1} term pairs"):
            normal_form("H^2*P")
        # the budget is per call: the same expression twice fits each time
        monkeypatch.setattr("momlat.algebra.MAX_PRODUCT_WORK", pairs)
        normal_form("H^2*P")
        normal_form("H^2*P")

    @pytest.mark.parametrize("text,value", [("H^0", OP_ONE), ("H^1", ATOMS["H"])])
    def test_zeroth_and_first_power_multiply_no_pairs(self, monkeypatch, text, value):
        monkeypatch.setattr("momlat.algebra.MAX_PRODUCT_WORK", 0)
        assert normal_form(text) == value
        with pytest.raises(ExpressionError, match="work limit of 0 term pairs"):
            normal_form("H^2")

    @pytest.mark.parametrize("text,pairs", [
        *((text, IDENTITY_PAIRS[name]) for name, text, _ in IDENTITIES),
        ("X^10", 108),
        ("H^6", 960),
        *BENCH_GROUP_PAIRS,
    ])
    def test_pinned_pair_counts(self, text, pairs):
        # the work limit counts |left| * |right| per product; these counts
        # pin what it charges, whatever route a product takes inside
        domain = algebra._Exact(ATOMS)
        algebra.fold(parse(text), domain)
        assert domain.pairs == pairs

    def test_suite_and_large_products_fit(self):
        assert MAX_PRODUCT_WORK >= 1_500_000
        assert not normal_form("H^16*H^4").is_zero

    def test_too_large_product_rejected_before_it_starts(self):
        with pytest.raises(ExpressionError, match="work limit") as err:
            normal_form("H^16*H^16")
        assert err.value.position is None


class TestExactAdjoint:
    @pytest.mark.parametrize("text", ["X - adj(X)", "P - adj(P)", "Q - adj(Q)", "H - adj(H)",
                                      "Abar - adj(A)", "adj(D) + Dbar", "adj(H^16) - H^16"])
    def test_hermiticity_facts_are_exact(self, text):
        assert normal_form(text).is_zero

    def test_each_term_is_conjugated_and_moved_past_its_shift(self):
        # (c a^e P^k A^m)^dagger = conj(c) a^e (P - m a)^k A^-m
        assert format_normal_form(normal_form("adj(i*a*P*A)")) == "(-i*a*P+i*a^2)*Abar"
        assert format_normal_form(normal_form("adj(3*a^2*P^3*A^2 + (2-i)/a*Abar)")) == \
            "(2+i)/a*A+(3*a^2*P^3-18*a^3*P^2+36*a^4*P-24*a^5)*Abar^2"
        assert normal_form("adj(2 - 3*i)") == normal_form("2 + 3*i")

    @given(EXPR_ST)
    @settings(max_examples=60, deadline=None)
    def test_double_adjoint_is_the_operator(self, e):
        assert normal_form(Adjoint(Adjoint(e))) == normal_form(e)

    @given(EXPR_ST, EXPR_ST)
    @settings(max_examples=40, deadline=None)
    def test_adjoint_reverses_products(self, e1, e2):
        assert normal_form(Adjoint(BinOp("*", e1, e2))) == \
            normal_form(BinOp("*", Adjoint(e2), Adjoint(e1)))

    def test_charges_the_terms_it_writes(self, monkeypatch):
        # A*P = (P+a)*A: one product pair, then the adjoint writes two terms,
        # (P-a)*Abar, for P*A and one for a*A; a term with no shift writes one
        work = 1 + 3
        monkeypatch.setattr("momlat.algebra.MAX_PRODUCT_WORK", work)
        assert format_normal_form(normal_form("adj(A*P)")) == "P*Abar"
        monkeypatch.setattr("momlat.algebra.MAX_PRODUCT_WORK", work - 1)
        with pytest.raises(ExpressionError, match=f"^normal form needs more than the work limit "
                                                  f"of {work - 1} term pairs in products and "
                                                  f"adjoints$"):
            normal_form("adj(A*P)")
        domain = algebra._Exact(ATOMS)
        algebra.fold(parse("adj(P^2 + 1)"), domain)
        assert domain.pairs == 1 + 2

    def test_a_refusal_by_products_alone_keeps_its_message(self):
        with pytest.raises(ExpressionError) as err:
            normal_form("H^16*H^16")
        assert str(err.value) == ("normal form needs more than the work limit of 2000000 "
                                  "term pairs in products")


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
        # a number divisor scales the operator's bands, bit for bit
        lat = MomentumLattice(-0.3, 0.5, 8)
        for text, name, divisor in (("P / 2", "P", 2), ("X/(2*i)", "X", 2j),
                                    ("P/(a+1)", "P", lat.a + 1)):
            expected = build_operator(lat, name).scaled(1.0 / divisor)
            assert same_bits(expression_matrix(text, lat).bands, expected.bands), text

    # a matrix divisor is refused whatever its truncated bands: those of
    # 2*I and I + A - A are c*I, and truncation zeroes one diagonal entry of
    # A*Abar; the applied domain refuses it with the same message
    @pytest.mark.parametrize("text", ["P / A", "X/(2*I)", "P/(I + A - A)", "P/(A*Abar)"])
    def test_division_by_operator_matrix_rejected(self, text):
        lat = MomentumLattice(0.0, 0.5, 8)
        with pytest.raises(ValueError, match="division is only defined by nonzero scalars"):
            expression_matrix(text, lat)
        with pytest.raises(ValueError, match="^division is only defined by nonzero scalars$"):
            algebra.fold(parse(text), operators._AppliedAtoms(lat))

    def test_first_power_is_its_base(self):
        lat = MomentumLattice(-0.5, 0.25, 10)
        power, P = expression_matrix("P^1", lat), build_operator(lat, "P")
        assert power.shift_radius == P.shift_radius
        assert np.array_equal(power.bands, P.bands)

    # a^-2 past the double range, a 401-digit literal as a coefficient and
    # as a scalar of the lattice fold, and an entry of the lattice fold
    @pytest.mark.parametrize("evaluate,message", [
        (lambda: to_matrix(normal_form("H"), MomentumLattice(0.0, 1e-200, 8)),
         r"^a coefficient of the normal form overflows double precision at a=1e-200$"),
        (lambda: to_matrix(normal_form("1" + "0" * 400 + "*P"), MomentumLattice(0.0, 0.5, 8)),
         r"^a coefficient of the normal form overflows double precision at a=0\.5$"),
        (lambda: expression_matrix("1" + "0" * 400 + "*P", MomentumLattice(0.0, 0.5, 8)),
         r"^a scalar of the expression overflows double precision on the lattice "
         r"p0=0,a=0\.5,n=8$"),
        (lambda: expression_matrix("P/1" + "0" * 400, MomentumLattice(0.0, 0.5, 8)),
         "^a scalar of the expression overflows double precision"),
        # H's X*X: entries of ~1e400, with no numpy warning on the way
        (lambda: expression_matrix("H", MomentumLattice(0.0, 1e-200, 8)),
         r"^an entry of the expression overflows double precision on the lattice "
         r"p0=0,a=1e-200,n=8$"),
    ], ids=["a_power", "nf_literal", "fold_literal", "fold_divisor", "fold_entry"])
    def test_overflow_is_a_value_error(self, evaluate, message):
        with pytest.raises(ValueError, match=message):
            evaluate()

    @pytest.mark.parametrize("node",[object(), "P", BinOp("*", Atom("P"), 2)])
    def test_non_node_rejected_in_both_domains(self, node):
        tree = Neg(Power(node, 2))
        with pytest.raises(TypeError, match="not an expression node"):
            normal_form(tree)
        with pytest.raises(TypeError, match="not an expression node"):
            expression_matrix(tree, MomentumLattice(0.0, 0.5, 8))


class TestScalars:
    """Gaussian-rational scalars: the engine's exact arithmetic, read through
    the flat map, the only form an operator's coefficients take."""

    def test_gaussian_arithmetic(self):
        x, y = "(1/2 + 3*i)", "(2 - i)"
        assert flat(normal_form(f"{x}*{y}")) == {(0, 0, 0): GQ(Fraction(4), Fraction(11, 2))}
        assert normal_form(f"{x}/{y}*{y}") == normal_form(x)
        with pytest.raises(ValueError, match="division by zero"):
            normal_form(f"{x}/(i - i)")

    def test_laurent_inverse(self):
        # dividing by a monomial c*a^e multiplies by (1/c)*a^-e
        assert normal_form("(3*a^2)/(3*a^2)") == OP_ONE
        assert flat(normal_form("1/(3*a^2)")) == {(0, 0, -2): GQ(Fraction(1, 3))}
        with pytest.raises(ValueError, match="only monomial coefficients are invertible"):
            normal_form("1/(1 + a)")

    def test_laurent_evaluate(self):
        op = from_flat({(0, 0, -2): GQ(Fraction(-1, 4)), (0, 0, 1): GQ(Fraction(0), Fraction(2))})
        values = op.evaluate(0.5)
        assert values == {(0, 0): pytest.approx(-1.0 + 1j)}

    @given(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8),
           st.integers(-8, 8), st.integers(1, 5), st.integers(1, 5))
    def test_gaussian_field_axioms(self, ar, ai, br, bi, aq, bq):
        x = f"(({ar})/{aq} + ({ai})/{aq}*i)"
        y = f"(({br})/{bq} + ({bi})/{bq}*i)"
        assert normal_form(f"{x} + {y}") == normal_form(f"{y} + {x}")
        assert normal_form(f"{x}*{y}") == normal_form(f"{y}*{x}")
        if br or bi:
            assert normal_form(f"({x}/{y})*{y}") == normal_form(x)


def test_name_tables_derive_from_primitives_and_definitions():
    defined = {name for name, _ in DEFINITIONS}
    assert set(OPERATOR_NAMES) == set(algebra._PRIMITIVES) - {"i", "a"} | defined
    assert set(operators.OPERATOR_NAMES) == set(OPERATOR_NAMES)
    assert set(ATOM_NAMES) == set(OPERATOR_NAMES) | {"i", "a"} == set(ATOMS)
    assert len(ATOM_NAMES) == len(set(ATOM_NAMES))
