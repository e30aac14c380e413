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
This map is the only form a coefficient takes: `format_normal_form` renders
from it, and `SymbolicOperator.evaluate`, which `operators.to_matrix` reads,
turns it into floating point at a concrete spacing.  Operators are built
only by this module, from the grammar (`parse`, `normal_form`), which checks
its input.  One `normal_form` call multiplies at most `MAX_PRODUCT_WORK`
pairs of flat terms, each term an adjoint writes counted as one pair.

The module also owns the expression grammar, its one tree walker and the
two tables the other layers read.  `fold(node, domain)` visits each node of
a parsed expression once and leaves the arithmetic to one of four domains.
Two are here: the exact domain multiplies normal forms and counts their
term pairs, and the margin domain folds band radii and corrupted-row bounds
for `margin`.  Two are in `operators`: the lattice domain multiplies banded
matrices, and the applied domain applies each operator to a vector.
`DEFINITIONS` writes the composite operators D, Dbar, X, Q, H over the
primitives A, Abar, P, I, i, a; `ATOMS` is its exact fold, and the name
tables `ATOM_NAMES` and `OPERATOR_NAMES` are read off the two.
`IDENTITIES` holds one `(name, text, margin)` row per identity: every row is
certified here as an exact rewrite to zero, and `operators` evaluates each
row with a margin on truncated matrices.  Adding an identity takes one row.
`margin(expr)` is the one rule for the rows of a truncated matrix that can
be trusted: a numpy-free domain folds an expression to its band radius and
a bound on the rows truncation corrupts, which the table's margin column is
held against and `operators.continuum_scan` reads its interior from.
Each table text is parsed once, at import: `DEFINITION_TREES` and
`IDENTITY_TREES` hold the parsed rows next to the text tables, and every
consumer (`_build_atoms`, the verdicts and `operators`) folds those trees,
so no run parses a table text again.  The verdicts are constants of the
program too: each row is normal-formed once, at import, as `check` would.

The identity rows form one DAG: their trees are interned at import, so
equal subtrees of different rows are one node object, and `shared_visits`
counts, once, how often one fold of the rows visits each shared node.  A
numeric suite call (`operators.verify_identity_suite`) folds all its rows
with one lattice domain and one `FoldMemo` built from those counts: a
shared node is folded on its first visit, its value is returned on later
visits and dropped after the last one, so the memo ends empty and holds
each value only until its last use.  The exact domain folds without a memo:
the rows certified at import and the expressions given by a user alike.
"""

from __future__ import annotations

import math
import re
from types import MappingProxyType

from .record import ValueRecord

MAX_EXPONENT = 16
# Most digits, leading zeros aside, of an integer literal: the longest that
# Python's default int conversion limit lets `int()` read or `str()` print.
MAX_LITERAL_DIGITS = 4300
# Deepest nesting the parser descends into, and deepest expression tree it
# returns; both are walked recursively, so deeper input is a usage error.
MAX_DEPTH = 200
# Most flat term pairs one normal_form call may multiply (|left| * |right|
# per product, powers included, and one per term an adjoint writes).
# H^16*H^8 takes 1,412,780 (1.1-1.7 s), H^16*H^16 would take 9,788,756 (~9 s).
MAX_PRODUCT_WORK = 2_000_000
# Most digits of a printed normal-form coefficient (numerator or
# denominator).  Turning an int into decimal text takes time quadratic in its
# length, ~0.2 s at this size, and powers of long literals grow past it.
MAX_PRINTED_DIGITS = 100_000


class ExpressionError(ValueError):
    """Parse or evaluation failure, carrying the 0-based character offset
    (None for a limit that belongs to no single offset)."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message if position is None else f"{message} at offset {position}")
        self.position = position


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
    (map, denominator).  This map is the operator's only coefficient form,
    and `_operator` the only constructor.
    """

    __slots__ = ("_terms", "_den")

    def evaluate(self, a: float) -> dict:
        """{(k, m): c_{k,m}(a)} as Python complex numbers at the spacing a, each
        summed from 0j over its terms in storage order."""
        den = self._den
        values: dict = {}
        for (k, m, e), (re, im) in self._terms.items():
            values[k, m] = values.get((k, m), 0j) + complex(re / den, im / den) * a ** e
        return values

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
        # distinct m1, then every pair of terms multiplies in integers.  A
        # right operand with no P moves past every shift unchanged, so it is
        # used as it is.  Either way the terms accumulate in one order: shift
        # group by shift group of the left operand, in order of first
        # appearance, and right term by right term within a group.
        by_shift: dict = {}
        for (k1, m1, e1), (re, im) in self._terms.items():
            by_shift.setdefault(m1, []).append((k1, e1, re, im))
        terms = other._terms
        has_p = any(k for k, _, _ in terms)
        acc: dict = {}
        get = acc.get
        for m1, left in by_shift.items():
            right = _shifted(terms, m1) if m1 and has_p else terms
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
    factor of den and every numerator divided out.  The gcd walk skips the
    zero entries and stops at the first common factor of 1; a C-level scan
    then finds any zero entry.  acc is the caller's fresh accumulator: it is
    returned as it is when nothing cancelled and the factor is 1, and
    copied otherwise."""
    g = den
    for re, im in acc.values():
        if re or im:
            g = math.gcd(g, re, im)
            if g == 1:
                break
    if g != 1:
        return {key: (re // g, im // g) for key, (re, im) in acc.items() if re or im}, den // g
    if (0, 0) in acc.values():
        return {key: c for key, c in acc.items() if c[0] or c[1]}, den
    return acc, den


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

# The tree nodes: immutable, equal and hashed by their fields.

class Atom(ValueRecord):
    def __init__(self, name: str):
        self.__dict__.update(name=name)


class IntLit(ValueRecord):
    def __init__(self, value: int):
        self.__dict__.update(value=value)


class Neg(ValueRecord):
    def __init__(self, operand):
        self.__dict__.update(operand=operand)


class BinOp(ValueRecord):
    def __init__(self, op: str, left, right):  # op is one of + - * /
        self.__dict__.update(op=op, left=left, right=right)


class Power(ValueRecord):
    def __init__(self, base, exponent: int):
        self.__dict__.update(base=base, exponent=exponent)


class Bracket(ValueRecord):
    def __init__(self, kind: str, left, right):  # commutator | anticommutator
        self.__dict__.update(kind=kind, left=left, right=right)


class Adjoint(ValueRecord):
    def __init__(self, operand):
        self.__dict__.update(operand=operand)


# The whitespace before a token, then the token: an operator character, an
# ASCII name, an ASCII integer or any other character, which is an error.
# `\s` is Unicode whitespace, as `str.isspace` is.  One `findall` scans the
# whole text; the offsets are summed from the lengths it returns.
_TOKEN = re.compile(r"(\s*)(?:([-+*/^()\[\]{},])|([A-Za-z_][A-Za-z0-9_]*)|([0-9]+)|(\S))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    for space, op, name, integer, bad in _TOKEN.findall(text):
        if space:
            pos += len(space)
        if op:
            tokens.append((op, op, pos))
            pos += 1
        elif name:
            tokens.append(("NAME", name, pos))
            pos += len(name)
        elif integer:
            tokens.append(("INT", integer, pos))
            pos += len(integer)
        else:
            raise ExpressionError(f"unexpected character {bad!r}", pos)
    tokens.append(("END", "", len(text)))
    return tokens


# opening token -> (closing token, Bracket kind)
_BRACKETS = {"[": ("]", "commutator"), "{": ("}", "anticommutator")}


class _Parser:
    """Recursive descent over the tokens.  Each parse_* method returns
    (node, height): the node and the levels of its tree, so the height
    limit needs no second walk."""

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
        node, height = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right, right_height = self.parse_term()
            node, height = BinOp(op, node, right), max(height, right_height) + 1
        return node, height

    def parse_term(self):
        node, height = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            right, right_height = self.parse_factor()
            node, height = BinOp(op, node, right), max(height, right_height) + 1
        return node, height

    def parse_factor(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExpressionError(f"nesting deeper than the limit {MAX_DEPTH}", self.peek()[2])
        if self.peek()[0] == "-":
            self.advance()
            operand, height = self.parse_factor()
            node, height = Neg(operand), height + 1
        else:
            node, height = self.parse_primary()
            if self.peek()[0] == "^":
                self.advance()
                tok = self.expect("INT")
                digits = tok[1].lstrip("0") or "0"
                # judged by its length first: int() refuses very long digit strings
                if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                    raise ExpressionError(
                        f"exponent {digits} exceeds the limit {MAX_EXPONENT}", tok[2])
                exponent = int(digits)
                node, height = Power(node, exponent), height + 1
        self.depth -= 1
        return node, height

    def parse_primary(self):
        kind, value, pos = self.peek()
        if kind == "NAME":
            self.advance()
            if value == "adj" and self.peek()[0] == "(":
                self.advance()
                operand, height = self.parse_expr()
                self.expect(")")
                return Adjoint(operand), height + 1
            if value not in ATOM_NAMES:
                raise ExpressionError(f"unknown identifier {value!r}", pos)
            return Atom(value), 1
        if kind == "INT":
            self.advance()
            if len(value) > MAX_LITERAL_DIGITS:
                value = value.lstrip("0") or "0"
                if len(value) > MAX_LITERAL_DIGITS:
                    raise ExpressionError(f"integer literal of {len(value)} digits exceeds the "
                                          f"limit of {MAX_LITERAL_DIGITS} digits", pos)
            return IntLit(int(value)), 1
        if kind == "(":
            self.advance()
            result = self.parse_expr()
            self.expect(")")
            return result
        if kind in _BRACKETS:
            close, bracket = _BRACKETS[kind]
            self.advance()
            left, left_height = self.parse_expr()
            self.expect(",")
            right, right_height = self.parse_expr()
            self.expect(close)
            return Bracket(bracket, left, right), max(left_height, right_height) + 1
        found = "end of input" if kind == "END" else repr(value)
        raise ExpressionError(f"expected an operand, found {found}", pos)


def parse(text: str):
    """Parse an expression over the operator atoms into an AST."""
    parser = _Parser(text)
    node, height = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "END":
        raise ExpressionError(f"unexpected trailing input {tok[1]!r}", tok[2])
    if height > MAX_DEPTH:
        raise ExpressionError(f"expression tree deeper than the limit {MAX_DEPTH}", 0)
    return node


def normal_form(expr) -> SymbolicOperator:
    """Rewrite an expression (AST or text) to its unique normal form.

    The products of one call may multiply at most MAX_PRODUCT_WORK pairs of
    flat terms in all; a larger expression is rejected before the product
    that would pass the limit starts.
    """
    if isinstance(expr, str):
        expr = parse(expr)
    return fold(expr, _Exact(_ATOMS))


def fold(node, domain, memo=None):
    """Value of an expression tree in a domain.

    A domain maps each atom name to its value and supplies `literal(int)`,
    `times(x, y)`, `plus(op, x, y)` with op "+" or "-", `divide(x, y)` and
    `adjoint(x)`; a value also negates with unary minus.  Operands are
    folded left to right, and a power multiplies its base in one at a time,
    base first: squaring was measured slower on H.

    With a `FoldMemo`, a node the memo lists is folded on its first visit
    only: later visits return that value, and the last one drops it.
    """
    if memo is not None and id(node) in memo:
        return memo.visit(node, domain)
    if isinstance(node, Atom):
        return domain[node.name]
    if isinstance(node, IntLit):
        return domain.literal(node.value)
    if isinstance(node, Neg):
        return -fold(node.operand, domain, memo)
    if isinstance(node, Power):
        base = fold(node.base, domain, memo)
        if not node.exponent:
            return domain.literal(1)
        result = base
        for _ in range(node.exponent - 1):
            result = domain.times(result, base)
        return result
    if not isinstance(node, (Bracket, BinOp)):
        if isinstance(node, Adjoint):
            return domain.adjoint(fold(node.operand, domain, memo))
        raise TypeError(f"not an expression node: {node!r}")
    left = fold(node.left, domain, memo)
    right = fold(node.right, domain, memo)
    if isinstance(node, Bracket):
        op = "-" if node.kind == "commutator" else "+"
        return domain.plus(op, domain.times(left, right), domain.times(right, left))
    if node.op == "*":
        return domain.times(left, right)
    if node.op == "/":
        return domain.divide(left, right)
    return domain.plus(node.op, left, right)


# The fields of each inner node class that hold subtrees, in fold's order.
_OPERAND_FIELDS = {Neg: ("operand",), Adjoint: ("operand",), Power: ("base",),
                   BinOp: ("left", "right"), Bracket: ("left", "right")}


def _interned(trees) -> list:
    """The trees rebuilt so that equal subtrees, in one tree or across
    several, are one node object."""
    nodes: dict = {}

    def intern(node):
        known = nodes.get(node)
        if known is not None:
            return known
        fields = _OPERAND_FIELDS.get(type(node), ())
        if fields:
            node = type(node)(**{f: intern(value) if f in fields else value
                                 for f, value in vars(node).items()})
        nodes[node] = node
        return node
    return [intern(tree) for tree in trees]


def shared_visits(trees) -> dict:
    """{id(node): visits} of each inner node that one fold of all `trees`
    with a `FoldMemo` visits more than once.  Such a fold folds each
    distinct node once, so it visits a node once per tree it roots and once
    per operand field, of each distinct node, that holds it."""
    visits: dict = {}
    stack = list(trees)
    while stack:
        node = stack.pop()
        fields = _OPERAND_FIELDS.get(type(node))
        if fields is None:
            continue
        key = id(node)
        visits[key] = visits.get(key, 0) + 1
        if visits[key] == 1:
            stack.extend(getattr(node, f) for f in fields)
    return {key: n for key, n in visits.items() if n > 1}


class FoldMemo(dict):
    """The shared nodes of one fold of several trees: id(node) -> the visits
    left, as `shared_visits` counts them, and in `values` the value of each
    node folded and not yet visited for the last time.  Keys are node
    identities, so the trees must outlive the memo; a memo serves one fold
    of its trees and ends empty."""

    __slots__ = ("values",)

    def __init__(self, visits: dict):
        super().__init__(visits)
        self.values = {}

    def visit(self, node, domain):
        key = id(node)
        left = self.pop(key) - 1
        values = self.values
        # with its key popped, the node folds as an unshared one
        value = values.pop(key) if key in values else fold(node, domain, self)
        if left:
            self[key] = left
            values[key] = value
        return value


class _Exact(dict):
    """The exact domain: normal forms of the atoms, and the work of one fold
    so far, the term pairs its products multiplied and its adjoints' terms."""

    def __init__(self, atoms: dict):
        super().__init__(atoms)
        self.pairs = 0

    @staticmethod
    def literal(value: int) -> SymbolicOperator:
        return _operator({(0, 0, 0): (value, 0)}, 1) if value else OP_ZERO

    def _charge(self, work: int, what: str):
        self.pairs += work
        if self.pairs > MAX_PRODUCT_WORK:
            raise ExpressionError(f"normal form needs more than the work limit of "
                                  f"{MAX_PRODUCT_WORK} term pairs in {what}")

    def times(self, left: SymbolicOperator, right: SymbolicOperator) -> SymbolicOperator:
        self._charge(len(left._terms) * len(right._terms), "products")
        return left * right

    def adjoint(self, x: SymbolicOperator) -> SymbolicOperator:
        # (c a^e P^k A^m)^dagger = conj(c) a^e A^-m P^k = conj(c) a^e (P - m a)^k A^-m:
        # each shift group is moved past A^-m by `_shifted`, which writes k + 1
        # terms a term, each charged as a pair; the groups land on distinct shifts
        self._charge(sum(k + 1 if m else 1 for k, m, _ in x._terms), "products and adjoints")
        by_shift: dict = {}
        for (k, m, e), (re, im) in x._terms.items():
            by_shift.setdefault(m, {})[k, -m, e] = (re, -im)
        acc: dict = {}
        for m, terms in by_shift.items():
            acc.update(_shifted(terms, -m) if m else terms)
        return _operator(*_reduced(acc, x._den))

    @staticmethod
    def plus(op: str, left: SymbolicOperator, right: SymbolicOperator) -> SymbolicOperator:
        return left + right if op == "+" else left - right

    @staticmethod
    def divide(left: SymbolicOperator, right: SymbolicOperator) -> SymbolicOperator:
        # the divisor must normal-form to an invertible scalar, one term
        # (re + i*im)/den a^e, whose inverse is den (re - i*im)/norm a^-e
        if right.is_zero:
            raise ValueError("division by zero")
        if any(k or m for k, m, _ in right._terms):
            raise ValueError("division is only defined by scalar coefficients")
        if len(right._terms) != 1:
            raise ValueError("only monomial coefficients are invertible")
        [((_, _, e), (re, im))] = right._terms.items()
        return left.scaled(right._den * re, -right._den * im, re * re + im * im, -e)


# ---------------------------------------------------------------------------
# the definition table
# ---------------------------------------------------------------------------

# The primitive atoms: the shifts, momentum, the identity and the scalars i
# and a.  Each composite operator is a DEFINITIONS row over these and the
# rows above it.
_PRIMITIVES = {"A": _operator({(0, 1, 0): (1, 0)}, 1), "Abar": _operator({(0, -1, 0): (1, 0)}, 1),
               "P": _operator({(1, 0, 0): (1, 0)}, 1), "I": OP_ONE,
               "i": _operator({(0, 0, 0): (0, 1)}, 1), "a": _operator({(0, 0, 1): (1, 0)}, 1)}

DEFINITIONS = (
    ("D", "(A - I)/a"),
    ("Dbar", "(I - Abar)/a"),
    ("X", "(D + Dbar)/(2*i)"),
    ("Q", "Dbar - D"),
    ("H", "X*X + P*P"),
)

# Every name the grammar reads, and the operators among them.
ATOM_NAMES = (*_PRIMITIVES, *(name for name, _ in DEFINITIONS))
OPERATOR_NAMES = tuple(name for name in ATOM_NAMES if name not in ("i", "a"))


# The DEFINITIONS rows parsed, name -> tree, in table order (read-only).
DEFINITION_TREES = MappingProxyType({name: parse(text) for name, text in DEFINITIONS})


def _build_atoms() -> dict:
    atoms = _Exact(_PRIMITIVES)
    for name, tree in DEFINITION_TREES.items():
        atoms[name] = fold(tree, atoms)
    return dict(atoms)


# Every fold reads the atoms, so callers get a read-only view; the exact
# domain copies the dict behind it, ~3x faster than copying the view.
_ATOMS = _build_atoms()
ATOMS = MappingProxyType(_ATOMS)


class _Margin(tuple):
    """(r, b) of the margin domain; negation changes neither."""

    __slots__ = ()

    def __neg__(self):
        return self


class _Margins(dict):
    """The margin domain of `fold`: (r, b), a truncated matrix's band radius r
    and a bound b on the rows at each end that truncation corrupts.  Primitives
    and scalars are exact, a composite atom folds its definition row, and a sum
    corrupts the rows either operand does; row i of L*R is exact when row i of L
    and the r(L) rows of R around it are; a scalar divisor changes nothing; an
    adjoint's row i is column i, which rows i-r..i+r write."""

    def __init__(self):
        super().__init__({name: _Margin((op.shift_radius, 0)) for name, op in _PRIMITIVES.items()})
        for name, tree in DEFINITION_TREES.items():
            self[name] = fold(tree, self)

    literal = staticmethod(lambda value: _Margin((0, 0)))
    times = staticmethod(lambda x, y: _Margin((x[0] + y[0], max(x[1], x[0] + y[1]))))
    plus = staticmethod(lambda op, x, y: _Margin((max(x[0], y[0]), max(x[1], y[1]))))
    divide = staticmethod(lambda x, y: x)
    adjoint = staticmethod(lambda x: _Margin((x[0], x[1] + x[0] if x[1] else 0)))


_MARGINS = _Margins()


def margin(expr) -> tuple:
    """(radius, rows) of an expression (AST or text): its truncated matrix's
    band radius, and a bound, on every lattice, on the rows at each end where
    that matrix may differ from `operators.to_matrix` of its normal form.
    Defined only for expressions that the lattice domain folds: every divisor
    is taken to be a nonzero scalar, which is not checked."""
    if isinstance(expr, str):
        expr = parse(expr)
    return tuple(fold(expr, _MARGINS))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _decimal(n: int) -> str:
    """str(n), also past Python's 4300-digit limit on int-to-text conversion:
    a longer n is split at a power of ten and printed in pieces."""
    bits = abs(n).bit_length()
    if bits <= 14000:  # at most 4215 digits
        return str(n)
    if bits > 3 * MAX_PRINTED_DIGITS and abs(n) >= 10 ** MAX_PRINTED_DIGITS:
        raise ExpressionError(f"the normal form has a coefficient of more than "
                              f"{MAX_PRINTED_DIGITS} digits, past the printing limit")
    if n < 0:
        return "-" + _decimal(-n)
    half = bits * 3 // 20  # about half of n's digits
    high, low = divmod(n, 10 ** half)
    return _decimal(high) + _decimal(low).zfill(half)


def _rational(num: int, den: int) -> str:
    """num/den in lowest terms, den > 0, through `_decimal`: the numerator
    alone when the quotient is whole."""
    g = math.gcd(num, den)
    if g == den:
        return _decimal(num // g)
    return _decimal(num // g) + "/" + _decimal(den // g)


def _times(c: str, symbol: str) -> str:
    """The printed coefficient c times a symbol: the symbol alone for c = 1,
    negated for c = -1."""
    if c == "1":
        return symbol
    if c == "-1":
        return "-" + symbol
    return f"{c}*{symbol}"


def _power(symbol: str, k: int) -> str:
    """symbol^k, bare for k = 1."""
    return symbol if k == 1 else f"{symbol}^{k}"


def _format_gaussian(re: int, im: int, den: int) -> str:
    """The scalar (re + i*im)/den as the grammar reads it."""
    if not im:
        return _rational(re, den)
    if not re:
        return _times(_rational(im, den), "i")
    sign = "+" if im > 0 else "-"
    return f"({_rational(re, den)}{sign}{_times(_rational(abs(im), den), 'i')})"


def _format_laurent(terms: dict, den: int, wrap_products: bool) -> str:
    """Render the coefficient {e: (re, im)} over den, highest power of a first;
    parenthesized if it has several terms and multiplies something.

    Reciprocal spacing powers print as division (1/a, c/a^2, ...) so that
    every rendering is valid input for `parse`.
    """
    parts = []
    for exp in sorted(terms, reverse=True):
        c = _format_gaussian(*terms[exp], den)
        if exp == 0:
            parts.append(c)
        elif exp > 0:
            parts.append(_times(c, _power("a", exp)))
        else:
            parts.append(f"{c}/{_power('a', -exp)}")
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
    # shift m -> P power k -> a-exponent e -> (re, im)
    by_shift: dict = {}
    for (k, m, e), c in op._terms.items():
        by_shift.setdefault(m, {}).setdefault(k, {})[e] = c
    groups = []
    for m in sorted(by_shift, reverse=True):
        terms = []
        for k in sorted(by_shift[m], reverse=True):
            c_str = _format_laurent(by_shift[m][k], op._den, wrap_products=k != 0 or m != 0)
            terms.append(_times(c_str, _power("P", k)) if k else c_str)
        body = _join_signed(terms)
        if m == 0:
            groups.append(body)
            continue
        if len(terms) > 1:
            body = f"({body})"
        groups.append(_times(body, _power("A", m) if m > 0 else _power("Abar", -m)))
    return _join_signed(groups)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

class SymbolicCheck(ValueRecord):
    """One identity's verdict; `vars()` gives the fields in the order of the
    CLI's JSON report."""

    def __init__(self, identity: str, zero: bool, normal_form_term_count: int):
        self.__dict__.update(identity=identity, zero=zero,
                             normal_form_term_count=normal_form_term_count)


# Rows are (name, text, margin).  The margin is the number of boundary rows
# at each end that the numeric check skips: an upper bound on the rows that
# truncation corrupts, not their count.  It is data, not the band radius
# (A*Abar - I has radius 2, but only its last row is wrong), and on exact
# dyadic lattices only three rows (A_Abar_is_identity, Abar_A_is_identity,
# commutator_P_H_expanded) have a nonzero boundary row at all.  None marks
# the two consistency lemmas (the bracket expansions agree; D and Dbar
# commute), checked only symbolically.  A text's grouping sets the float
# operation order of its matrix evaluation.
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
# The IDENTITIES rows with each text parsed: (name, tree, margin).  The
# trees are interned in one table, so equal subtrees of different rows, such
# as the [X,H] + 2*i*P that both X_H rows begin with, are one node object.
IDENTITY_TREES = tuple(
    (name, tree, margin) for (name, _, margin), tree
    in zip(IDENTITIES, _interned(parse(text) for _, text, _ in IDENTITIES)))
# Each row's verdict, certified once: one normal form per row.
_SYMBOLIC_CHECKS = tuple(SymbolicCheck(name, nf.is_zero, nf.term_count)
                         for name, tree, _ in IDENTITY_TREES for nf in [normal_form(tree)])


def verify_symbolic_suite() -> list:
    """Whether each identity's normal form is exactly zero: a fresh list of
    the verdicts certified at import.  `FoldMemo` serves the numeric suite."""
    return list(_SYMBOLIC_CHECKS)
