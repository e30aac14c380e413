"""Exact normal-ordering engine for the shift-operator algebra.

Words in the momentum operator P and the shifts A, Abar are rewritten to the
unique normal form sum_{k,m} c_{k,m}(a) P^k A^m (negative m meaning Abar^|m|)
using the exchange rules

    A * P = (P + a) * A,      Abar * P = (P - a) * Abar,
    A * Abar = Abar * A = 1,

with coefficients that are Laurent polynomials in the spacing symbol a over
the Gaussian rationals.  Everything here is exact: no floating point enters
until a normal form is evaluated on a concrete lattice.

A `SymbolicOperator` stores its normal form flat, as one map
(k, m, e) -> (re, im) of Python ints over a single shared denominator: the
term ((re + i*im)/den) a^e P^k A^m.  Products and sums are integer
arithmetic followed by one gcd reduction, so the stored form is canonical.
`GaussianRational` and `LaurentPoly` are the value types that `items()` and
`coefficient()` build on demand for rendering and evaluation.  One
`normal_form` call multiplies at most `MAX_PRODUCT_WORK` pairs of flat terms.

The module also owns the expression grammar and the two tables the other
layers read.  `DEFINITIONS` writes the composite operators D, Dbar, X, Q, H
over the primitives A, Abar, P, I, i, a; `ATOMS` is its exact fold.
`IDENTITIES` holds one `(name, text, margin)` row per identity: every row is
certified here as an exact rewrite to zero, and `operators` evaluates each
row with a margin on truncated matrices.  Adding an identity takes one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

ATOM_NAMES = ("A", "Abar", "P", "X", "Q", "H", "D", "Dbar", "I", "i", "a")
MAX_EXPONENT = 16
# Deepest nesting the parser descends into, and deepest expression tree it
# returns; both are walked recursively, so deeper input is a usage error.
MAX_DEPTH = 200
# Most flat term pairs the products of one normal_form call may multiply
# (|left| * |right| summed over its products, powers included).  H^16*H^8
# takes ~1.4e6 and about a second; H^16*H^16 would take ~1e7.
MAX_PRODUCT_WORK = 2_000_000


class ExpressionError(ValueError):
    """Parse or evaluation failure, carrying the 0-based character offset
    (None for a limit that belongs to no single offset)."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} at offset {position}")
        self.position = position


# ---------------------------------------------------------------------------
# exact scalars: the value types a coefficient is read as
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other):
        other = _as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _as_gaussian(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(Fraction(1))


def _as_gaussian(v) -> GaussianRational:
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational(Fraction(v))
    raise TypeError(f"cannot coerce {type(v).__name__} to GaussianRational")


class LaurentPoly:
    """Laurent polynomial in the spacing symbol a over the Gaussian rationals."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        for exp, coeff in (terms or {}).items():
            coeff = _as_gaussian(coeff)
            if not coeff.is_zero:
                clean[int(exp)] = coeff
        self._terms = clean

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "LaurentPoly":
        return cls({exponent: _as_gaussian(coeff)})

    @classmethod
    def constant(cls, coeff) -> "LaurentPoly":
        return cls({0: _as_gaussian(coeff)})

    def items(self):
        return sorted(self._terms.items(), reverse=True)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def exponents(self):
        return sorted(self._terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self.items()))

    def __add__(self, other):
        out = dict(self._terms)
        for exp, coeff in other._terms.items():
            s = out.get(exp, GR_ZERO) + coeff
            if s.is_zero:
                out.pop(exp, None)
            else:
                out[exp] = s
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                s = out.get(e, GR_ZERO) + c1 * c2
                if s.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentPoly(out)

    def as_monomial(self):
        """(exponent, coeff) if this is a single term, else None."""
        if len(self._terms) != 1:
            return None
        [(exp, coeff)] = self._terms.items()
        return exp, coeff

    def inverse(self) -> "LaurentPoly":
        mono = self.as_monomial()
        if mono is None:
            raise ValueError("only monomial coefficients are invertible")
        exp, coeff = mono
        return LaurentPoly({-exp: GR_ONE / coeff})

    def evaluate(self, a: float) -> complex:
        return sum((c.to_complex() * a ** e for e, c in self._terms.items()), 0j)


# ---------------------------------------------------------------------------
# normal-ordered operators
# ---------------------------------------------------------------------------

class SymbolicOperator:
    """Exact element of the algebra in normal form sum c_{k,m}(a) P^k A^m.

    Stored flat: `_terms` maps (k, m, e) to a Gaussian integer (re, im) of
    Python ints, and the entry stands for ((re + i*im)/_den) a^e P^k A^m, with
    k >= 0, any integer m (m < 0 is Abar^|m|) and any integer e.  Every entry
    shares the one positive denominator `_den`.  The storage is reduced: no
    entry is (0, 0) and gcd(_den, every numerator) == 1, so the zero operator
    is the empty map over 1, and equality of operators is equality of
    (map, denominator).  `items()` and `coefficient()` build the
    `LaurentPoly` view of a (k, m) coefficient on demand.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: dict | None = None):
        """Operator from {(k, m): LaurentPoly or scalar}, the form `items()` lists."""
        flat = {}
        for (k, m), poly in (terms or {}).items():
            if not isinstance(poly, LaurentPoly):
                poly = LaurentPoly.constant(poly)
            if k < 0:
                raise ValueError("P exponent must be non-negative")
            for e, c in poly._terms.items():
                flat[(int(k), int(m), e)] = c
        den = math.lcm(1, *(x.denominator for c in flat.values() for x in (c.re, c.im)))
        self._terms, self._den = _reduced(
            {key: (int(c.re * den), int(c.im * den)) for key, c in flat.items()}, den)

    def items(self):
        """[((k, m), LaurentPoly)] sorted by (k, m)."""
        polys: dict = {}
        for (k, m, e), c in self._terms.items():
            polys.setdefault((k, m), {})[e] = self._gaussian(c)
        return sorted((key, LaurentPoly(p)) for key, p in polys.items())

    def coefficient(self, k: int, m: int) -> LaurentPoly:
        return LaurentPoly({e: self._gaussian(c) for (k2, m2, e), c in self._terms.items()
                            if (k2, m2) == (k, m)})

    def _gaussian(self, c) -> GaussianRational:
        return GaussianRational(Fraction(c[0], self._den), Fraction(c[1], self._den))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def term_count(self) -> int:
        """Number of distinct (k, m) coefficients."""
        return len({(k, m) for k, m, _ in self._terms})

    @property
    def shift_radius(self) -> int:
        return max((abs(m) for _, m, _ in self._terms), default=0)

    def __eq__(self, other):
        return (isinstance(other, SymbolicOperator) and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self):
        return hash((frozenset(self._terms.items()), self._den))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int) -> "SymbolicOperator":
        # both operands over the lcm of their denominators
        g = math.gcd(self._den, other._den)
        f1, f2 = other._den // g, sign * (self._den // g)
        acc = {key: (re * f1, im * f1) for key, (re, im) in self._terms.items()}
        for key, (re, im) in other._terms.items():
            old = acc.get(key)
            acc[key] = (re * f2, im * f2) if old is None else (old[0] + re * f2, old[1] + im * f2)
        return _operator(*_reduced(acc, self._den // g * other._den))

    def __neg__(self):
        return _operator({key: (-re, -im) for key, (re, im) in self._terms.items()}, self._den)

    def __mul__(self, other):
        # (P^k1 A^m1)(P^k2 A^m2) = P^k1 (P + m1 a)^k2 A^(m1+m2), the closed form
        # of the exchange rules: the right operand is moved past A^m1 once per
        # distinct m1, then every pair of terms multiplies in integers.
        by_shift: dict = {}
        for (k1, m1, e1), (re, im) in self._terms.items():
            by_shift.setdefault(m1, []).append((k1, e1, re, im))
        acc: dict = {}
        get = acc.get
        for m1, left in by_shift.items():
            right = _shifted(other._terms, m1) if m1 else other._terms
            for (k2, m2, e2), (c, d) in right.items():
                m = m1 + m2
                for k1, e1, a, b in left:
                    key = (k1 + k2, m, e1 + e2)
                    old = get(key)
                    if old is None:
                        acc[key] = (a * c - b * d, a * d + b * c)
                    else:
                        acc[key] = (old[0] + a * c - b * d, old[1] + a * d + b * c)
        return _operator(*_reduced(acc, self._den * other._den))

    def scaled(self, re: int, im: int, den: int, e: int) -> "SymbolicOperator":
        """This operator times the scalar ((re + i*im)/den) a^e, den > 0."""
        return _operator(*_reduced(
            {(k, m, e1 + e): (a * re - b * im, a * im + b * re)
             for (k, m, e1), (a, b) in self._terms.items()}, self._den * den))


def _operator(terms: dict, den: int) -> SymbolicOperator:
    """Operator over already reduced storage."""
    op = object.__new__(SymbolicOperator)
    op._terms, op._den = terms, den
    return op


def _reduced(acc: dict, den: int):
    """(terms, den) with the zero entries of acc dropped and the common
    factor of den and every numerator divided out."""
    terms = {key: c for key, c in acc.items() if c[0] or c[1]}
    g = den
    for re, im in terms.values():
        g = math.gcd(g, re, im)
        if g == 1:
            return terms, den
    return {key: (re // g, im // g) for key, (re, im) in terms.items()}, den // g


def _shifted(terms: dict, s: int) -> dict:
    """Right-hand terms moved past A^s: P^k A^m becomes (P + s a)^k A^m
    = sum_i C(k, i) s^(k-i) a^(k-i) P^i A^m."""
    out: dict = {}
    get = out.get
    for (k, m, e), (re, im) in terms.items():
        for i in range(k + 1):
            f = math.comb(k, i) * s ** (k - i)
            key = (i, m, e + k - i)
            old = get(key)
            out[key] = (re * f, im * f) if old is None else (old[0] + re * f, old[1] + im * f)
    return out


OP_ZERO = _operator({}, 1)
OP_ONE = _operator({(0, 0, 0): (1, 0)}, 1)


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int


@dataclass(frozen=True)
class Bracket:
    kind: str  # commutator | anticommutator
    left: object
    right: object


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            tokens.append(("INT", text[start:pos], start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("NAME", text[start:pos], start))
            continue
        if ch in "+-*/^()[]{},":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", pos)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "END" else repr(tok[1])
            raise ExpressionError(f"expected {kind!r}, found {found}", tok[2])
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExpressionError(f"nesting deeper than the limit {MAX_DEPTH}", self.peek()[2])
        if self.peek()[0] == "-":
            self.advance()
            node = Neg(self.parse_factor())
        else:
            node = self.parse_primary()
            if self.peek()[0] == "^":
                self.advance()
                tok = self.expect("INT")
                exponent = int(tok[1])
                if exponent > MAX_EXPONENT:
                    raise ExpressionError(
                        f"exponent {exponent} exceeds the limit {MAX_EXPONENT}", tok[2])
                node = Power(node, exponent)
        self.depth -= 1
        return node

    def parse_primary(self):
        kind, value, pos = self.peek()
        if kind == "NAME":
            self.advance()
            if value not in ATOM_NAMES:
                raise ExpressionError(f"unknown identifier {value!r}", pos)
            return Atom(value)
        if kind == "INT":
            self.advance()
            return IntLit(int(value))
        if kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "[":
            self.advance()
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect("]")
            return Bracket("commutator", left, right)
        if kind == "{":
            self.advance()
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect("}")
            return Bracket("anticommutator", left, right)
        found = "end of input" if kind == "END" else repr(value)
        raise ExpressionError(f"expected an operand, found {found}", pos)


def parse(text: str):
    """Parse an expression over the operator atoms into an AST."""
    parser = _Parser(text)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "END":
        raise ExpressionError(f"unexpected trailing input {tok[1]!r}", tok[2])
    if _height(node) > MAX_DEPTH:
        raise ExpressionError(f"expression tree deeper than the limit {MAX_DEPTH}", 0)
    return node


def _height(node) -> int:
    """Levels of an expression tree, counted without recursion."""
    height, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        height = max(height, level)
        if isinstance(node, (BinOp, Bracket)):
            stack += [(node.left, level + 1), (node.right, level + 1)]
        elif isinstance(node, Neg):
            stack.append((node.operand, level + 1))
        elif isinstance(node, Power):
            stack.append((node.base, level + 1))
    return height


def normal_form(expr) -> SymbolicOperator:
    """Rewrite an expression (AST or text) to its unique normal form.

    The products of one call may multiply at most MAX_PRODUCT_WORK pairs of
    flat terms in all; a larger expression is rejected before the product
    that would pass the limit starts.
    """
    if isinstance(expr, str):
        expr = parse(expr)
    return _fold(expr, ATOMS, _Work())


class _Work:
    """Flat term pairs multiplied so far in one fold."""

    __slots__ = ("pairs",)

    def __init__(self):
        self.pairs = 0

    def product(self, left: SymbolicOperator, right: SymbolicOperator) -> SymbolicOperator:
        self.pairs += len(left._terms) * len(right._terms)
        if self.pairs > MAX_PRODUCT_WORK:
            raise ExpressionError(f"normal form needs more than the work limit of "
                                  f"{MAX_PRODUCT_WORK} term pairs in products")
        return left * right


def _fold(node, atoms, work: _Work) -> SymbolicOperator:
    if isinstance(node, Atom):
        return atoms[node.name]
    if isinstance(node, IntLit):
        return _operator({(0, 0, 0): (node.value, 0)}, 1) if node.value else OP_ZERO
    if isinstance(node, Neg):
        return -_fold(node.operand, atoms, work)
    if isinstance(node, Power):
        # repeated multiplication by the base: squaring was measured slower on H
        base = _fold(node.base, atoms, work)
        result = OP_ONE
        for _ in range(node.exponent):
            result = work.product(result, base)
        return result
    if isinstance(node, Bracket):
        left = _fold(node.left, atoms, work)
        right = _fold(node.right, atoms, work)
        if node.kind == "commutator":
            return work.product(left, right) - work.product(right, left)
        return work.product(left, right) + work.product(right, left)
    if isinstance(node, BinOp):
        left = _fold(node.left, atoms, work)
        right = _fold(node.right, atoms, work)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return work.product(left, right)
        # division: the divisor must normal-form to an invertible scalar,
        # one term (re + i*im)/den a^e, whose inverse is den (re - i*im)/norm a^-e
        if right.is_zero:
            raise ValueError("division by zero")
        if any(k or m for k, m, _ in right._terms):
            raise ValueError("division is only defined by scalar coefficients")
        if len(right._terms) != 1:
            raise ValueError("only monomial coefficients are invertible")
        [((_, _, e), (re, im))] = right._terms.items()
        return left.scaled(right._den * re, -right._den * im, re * re + im * im, -e)
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# the definition table
# ---------------------------------------------------------------------------

# Each composite operator as an expression over the primitives A, Abar, P,
# I, i, a and the rows above it.
DEFINITIONS = (
    ("D", "(A - I)/a"),
    ("Dbar", "(I - Abar)/a"),
    ("X", "(D + Dbar)/(2*i)"),
    ("Q", "Dbar - D"),
    ("H", "X*X + P*P"),
)


def _build_atoms() -> dict:
    atoms = {"A": _operator({(0, 1, 0): (1, 0)}, 1), "Abar": _operator({(0, -1, 0): (1, 0)}, 1),
             "P": _operator({(1, 0, 0): (1, 0)}, 1), "I": OP_ONE,
             "i": _operator({(0, 0, 0): (0, 1)}, 1), "a": _operator({(0, 0, 1): (1, 0)}, 1)}
    for name, text in DEFINITIONS:
        atoms[name] = _fold(parse(text), atoms, _Work())
    return atoms


ATOMS = _build_atoms()


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _format_gaussian(g: GaussianRational) -> str:
    if g.im == 0:
        return str(g.re)
    if g.re == 0:
        if g.im == 1:
            return "i"
        if g.im == -1:
            return "-i"
        return f"{str(g.im)}*i"
    im = "i" if abs(g.im) == 1 else f"{str(abs(g.im))}*i"
    sign = "+" if g.im > 0 else "-"
    return f"({str(g.re)}{sign}{im})"


def _format_laurent(poly: LaurentPoly, wrap_products: bool) -> str:
    """Render a Laurent coefficient; parenthesized if it multiplies something.

    Reciprocal spacing powers print as division (1/a, c/a^2, ...) so that
    every rendering is valid input for `parse`.
    """
    parts = []
    for exp, coeff in poly.items():
        c = _format_gaussian(coeff)
        if exp == 0:
            parts.append(c)
        elif exp > 0:
            a_str = "a" if exp == 1 else f"a^{exp}"
            if c == "1":
                parts.append(a_str)
            elif c == "-1":
                parts.append("-" + a_str)
            else:
                parts.append(f"{c}*{a_str}")
        else:
            a_str = "a" if exp == -1 else f"a^{-exp}"
            parts.append(f"{c}/{a_str}")
    text = _join_signed(parts)
    if wrap_products and len(parts) > 1:
        return f"({text})"
    return text


def _join_signed(parts) -> str:
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def format_normal_form(op: SymbolicOperator) -> str:
    """Human-readable normal form, grouped by shift power.

    Terms with the same shift power are collected into a polynomial in P, so
    e.g. the normal form of A*P renders as (P+a)*A.
    """
    if op.is_zero:
        return "0"
    by_shift: dict = {}
    for (k, m), poly in op.items():
        by_shift.setdefault(m, []).append((k, poly))
    groups = []
    for m in sorted(by_shift, reverse=True):
        terms = []
        for k, poly in sorted(by_shift[m], reverse=True):
            p_str = "" if k == 0 else ("P" if k == 1 else f"P^{k}")
            c_str = _format_laurent(poly, wrap_products=bool(p_str) or m != 0)
            if not p_str:
                terms.append(c_str)
            elif c_str == "1":
                terms.append(p_str)
            elif c_str == "-1":
                terms.append("-" + p_str)
            else:
                terms.append(f"{c_str}*{p_str}")
        body = _join_signed(terms)
        if m == 0:
            groups.append(body)
            continue
        shift = ("A" if m == 1 else f"A^{m}") if m > 0 else \
                ("Abar" if m == -1 else f"Abar^{-m}")
        if len(terms) > 1:
            body = f"({body})"
        if body == "1":
            groups.append(shift)
        elif body == "-1":
            groups.append("-" + shift)
        else:
            groups.append(f"{body}*{shift}")
    return _join_signed(groups)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolicCheck:
    identity: str
    zero: bool
    normal_form_term_count: int


# Rows are (name, text, margin).  The margin counts the boundary rows that
# truncation corrupts; it is data, not the band radius (A*Abar - I has radius
# 2, but only its last row is wrong).  None marks the two consistency lemmas
# (the bracket expansions agree; D and Dbar commute), checked only
# symbolically.  A text's grouping sets the float operation order of its
# matrix evaluation.
IDENTITIES = (
    ("A_Abar_is_identity", "A*Abar - I", 1),
    ("Abar_A_is_identity", "Abar*A - I", 1),
    ("commutator_A_P", "[A,P] - a*A", 1),
    ("commutator_Abar_P", "[Abar,P] + a*Abar", 1),
    ("commutator_D_P", "[D,P] - A", 1),
    ("commutator_Dbar_P", "[Dbar,P] - Abar", 1),
    ("commutator_X_P", "[X,P] + i - (i*a/2)*Q", 1),
    ("H_shift_form", "H - ((-1/(4*a^2))*(A - Abar)^2 + P^2)", 2),
    ("commutator_X_H_braced", "[X,H] + 2*i*P - (i*a/2)*{Q,P}", 3),
    ("commutator_X_H_expanded", "[X,H] + 2*i*P - i*a*(P*Q) - a^2*X", 3),
    ("commutator_P_H_braced", "[P,H] - 2*i*X + (i*a/2)*{Q,X}", 3),
    ("commutator_P_H_expanded", "[P,H] - 2*i*X + i*a*(X*Q)", 3),
    ("QP_brace_expansion", "(i*a/2)*{Q,P} - i*a*P*Q - a^2*X", None),
    ("D_Dbar_commute_lemma", "[D,Dbar]", None),
)


def verify_symbolic_suite() -> list:
    """Normal-form every identity and report whether it is exactly zero."""
    results = []
    for name, text, _ in IDENTITIES:
        nf = normal_form(text)
        results.append(SymbolicCheck(name, nf.is_zero, nf.term_count))
    return results


def check_to_dict(check: SymbolicCheck) -> dict:
    return {
        "identity": check.identity,
        "zero": check.zero,
        "normal_form_term_count": check.normal_form_term_count,
    }

