"""Exact normal-ordering engine for the shift-operator algebra.

Words in the momentum operator P and the shifts A, Abar are rewritten to the
unique normal form sum_{k,m} c_{k,m}(a) P^k A^m (negative m meaning Abar^|m|)
using the exchange rules

    A * P = (P + a) * A,      Abar * P = (P - a) * Abar,
    A * Abar = Abar * A = 1,

with coefficients that are Laurent polynomials in the spacing symbol a over
the Gaussian rationals.  Everything here is exact: no floating point enters
until a normal form is evaluated on a concrete lattice.

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


class ExpressionError(ValueError):
    """Parse or evaluation failure, carrying the 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


# ---------------------------------------------------------------------------
# exact scalars
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
GR_I = GaussianRational(Fraction(0), Fraction(1))


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


LP_ZERO = LaurentPoly()
LP_ONE = LaurentPoly.constant(1)


# ---------------------------------------------------------------------------
# normal-ordered operators
# ---------------------------------------------------------------------------

class SymbolicOperator:
    """Exact element of the algebra in normal form sum c_{k,m}(a) P^k A^m.

    The key (k, m) has k >= 0 (power of P) and any integer m (shift power;
    m < 0 stands for Abar^|m|).  The zero operator is the empty map, and
    equality of operators is equality of maps.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        for (k, m), poly in (terms or {}).items():
            if not isinstance(poly, LaurentPoly):
                poly = LaurentPoly.constant(poly)
            if k < 0:
                raise ValueError("P exponent must be non-negative")
            if not poly.is_zero:
                clean[(int(k), int(m))] = poly
        self._terms = clean

    def items(self):
        return sorted(self._terms.items())

    def coefficient(self, k: int, m: int) -> LaurentPoly:
        return self._terms.get((k, m), LP_ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def term_count(self) -> int:
        return len(self._terms)

    @property
    def shift_radius(self) -> int:
        return max((abs(m) for _, m in self._terms), default=0)

    def __eq__(self, other):
        return isinstance(other, SymbolicOperator) and self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    def __add__(self, other):
        out = dict(self._terms)
        for key, poly in other._terms.items():
            s = out.get(key, LP_ZERO) + poly
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        return SymbolicOperator(out)

    def __neg__(self):
        return SymbolicOperator({key: -poly for key, poly in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # (P^k1 A^m1)(P^k2 A^m2) = P^k1 (P + m1 a)^k2 A^(m1+m2), expanded by
        # the binomial theorem; this is the closed form of the exchange rules.
        out: dict = {}
        for (k1, m1), c1 in self._terms.items():
            for (k2, m2), c2 in other._terms.items():
                base = c1 * c2
                for i in range(k2 + 1):
                    coeff = base * LaurentPoly.monomial(
                        k2 - i, math.comb(k2, i) * m1 ** (k2 - i))
                    key = (k1 + i, m1 + m2)
                    s = out.get(key, LP_ZERO) + coeff
                    if s.is_zero:
                        out.pop(key, None)
                    else:
                        out[key] = s
        return SymbolicOperator(out)

    def scaled(self, poly: LaurentPoly) -> "SymbolicOperator":
        return SymbolicOperator({key: p * poly for key, p in self._terms.items()})

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("operator powers must be non-negative")
        result = OP_ONE
        for _ in range(exponent):
            result = result * self
        return result


def _basis(k: int, m: int, poly=LP_ONE) -> SymbolicOperator:
    return SymbolicOperator({(k, m): poly})


OP_ZERO = SymbolicOperator()
OP_ONE = _basis(0, 0)


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
    """Rewrite an expression (AST or text) to its unique normal form."""
    if isinstance(expr, str):
        expr = parse(expr)
    return _fold(expr, ATOMS)


def _fold(node, atoms) -> SymbolicOperator:
    if isinstance(node, Atom):
        return atoms[node.name]
    if isinstance(node, IntLit):
        return OP_ONE.scaled(LaurentPoly.constant(node.value))
    if isinstance(node, Neg):
        return -_fold(node.operand, atoms)
    if isinstance(node, Power):
        return _fold(node.base, atoms) ** node.exponent
    if isinstance(node, Bracket):
        left = _fold(node.left, atoms)
        right = _fold(node.right, atoms)
        if node.kind == "commutator":
            return left * right - right * left
        return left * right + right * left
    if isinstance(node, BinOp):
        left = _fold(node.left, atoms)
        right = _fold(node.right, atoms)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        # division: the divisor must normal-form to an invertible scalar
        if right.is_zero:
            raise ValueError("division by zero")
        items = right.items()
        if len(items) != 1 or items[0][0] != (0, 0):
            raise ValueError("division is only defined by scalar coefficients")
        return left.scaled(items[0][1].inverse())
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
    atoms = {"A": _basis(0, 1), "Abar": _basis(0, -1), "P": _basis(1, 0), "I": OP_ONE,
             "i": _basis(0, 0, LaurentPoly.constant(GR_I)),
             "a": _basis(0, 0, LaurentPoly.monomial(1))}
    for name, text in DEFINITIONS:
        atoms[name] = _fold(parse(text), atoms)
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

