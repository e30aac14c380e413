"""Truncated matrix representations of the lattice operators.

Builds dense matrices for the shifts A/Abar, the one-sided difference
quotients D/Dbar, multiplication by momentum P, the symmetrized position
operator X, the curvature operator Q and H = X^2 + P^2, on a finite window of
the momentum grid.  Truncation zeroes everything beyond the window (Dirichlet
convention), so operator identities that hold on the unbounded grid hold here
on interior rows only; `interior_residual` measures exactly that.

The algebra is not restated here: A, Abar, P and I are built directly, every
other operator folds its `algebra.DEFINITIONS` row, and `verify_identity_suite`
folds the `algebra.IDENTITIES` rows that have a margin.  In the fold, scalar
subtrees stay Python numbers standing for c*I, so a*A scales A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (DEFINITIONS, IDENTITIES, Atom, BinOp, Bracket, IntLit, Neg, Power,
                      SymbolicOperator, parse)
from .formatting import fmt_real
from .lattice import GridFunction, MomentumLattice, inner_product

OPERATOR_NAMES = ("A", "Abar", "D", "Dbar", "P", "X", "Q", "H", "I")

RESIDUAL_CSV_HEADER = "identity,margin,residual"
CONVERGENCE_CSV_HEADER = "a,r,log_a,log_r"


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense complex matrix on a lattice, with a tracked band radius.

    shift_radius is an upper bound on |row - column| of nonzero entries; it
    is carried through arithmetic (max under +/-, sum under products) and the
    band structure is asserted on construction.
    """

    lattice: MomentumLattice
    entries: np.ndarray
    shift_radius: int

    def __post_init__(self):
        n = self.lattice.n_points
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {entries.shape}")
        if self.shift_radius < 0:
            raise ValueError("shift_radius must be non-negative")
        if self.shift_radius < n - 1:
            idx = np.arange(n)
            outside = np.abs(idx[:, None] - idx[None, :]) > self.shift_radius
            if np.any(entries[outside] != 0):
                raise ValueError("nonzero entry outside the declared band")
        object.__setattr__(self, "entries", entries)

    def _same_lattice(self, other: "OperatorMatrix"):
        if self.lattice != other.lattice:
            raise ValueError("operators live on different lattices")

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._same_lattice(other)
        return OperatorMatrix(self.lattice, self.entries + other.entries,
                              max(self.shift_radius, other.shift_radius))

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._same_lattice(other)
        return OperatorMatrix(self.lattice, self.entries - other.entries,
                              max(self.shift_radius, other.shift_radius))

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.lattice, -self.entries, self.shift_radius)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._same_lattice(other)
        return OperatorMatrix(self.lattice, self.entries @ other.entries,
                              self.shift_radius + other.shift_radius)

    def scaled(self, c: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.lattice, c * self.entries, self.shift_radius)


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one identity check: worst interior matrix entry of LHS-RHS."""

    identity_name: str
    max_interior_residual: float
    margin_rows: int
    lattice: str


@dataclass(frozen=True)
class ConvergenceTable:
    """Residual-vs-spacing table of a continuum scan plus the log-log slope."""

    spacings: tuple
    residuals: tuple
    slope: float


_PRIMITIVES = {
    "I": lambda lat: OperatorMatrix(lat, np.eye(lat.n_points, dtype=complex), 0),
    "A": lambda lat: OperatorMatrix(lat, np.eye(lat.n_points, k=1, dtype=complex), 1),
    "Abar": lambda lat: OperatorMatrix(lat, np.eye(lat.n_points, k=-1, dtype=complex), 1),
    "P": lambda lat: OperatorMatrix(lat, np.diag(lat.momenta().astype(complex)), 0),
}
_DEFINITION_TREES = {name: parse(text) for name, text in DEFINITIONS}
_NUMERIC_IDENTITIES = tuple((name, parse(text), margin)
                            for name, text, margin in IDENTITIES if margin is not None)


class _LatticeAtoms(dict):
    """The grammar's atoms on one lattice, each built on first lookup and kept.

    i and a are Python numbers.  A definition row is folded in a scope that
    starts from the atoms built so far and is dropped when the row is done,
    so the operators built only for that row are released with it.
    """

    def __init__(self, lattice: MomentumLattice):
        super().__init__(i=1j, a=lattice.a)
        self.lattice = lattice

    def __missing__(self, name):
        if name in _PRIMITIVES:
            value = _PRIMITIVES[name](self.lattice)
        else:
            scope = _LatticeAtoms(self.lattice)
            scope.update(self)
            value = _fold(_DEFINITION_TREES[name], scope)
        self[name] = value
        return value


def build_operator(lattice: MomentumLattice, name: str) -> OperatorMatrix:
    """Truncated matrix of one named operator.

    A shifts samples down-index (row j picks up sample j+1) and has a zero
    last row; Abar is its mirror; P = diag(p_j); I is the identity.  The
    others fold their `algebra.DEFINITIONS` row: D = (A-I)/a,
    Dbar = (I-Abar)/a, X = (D+Dbar)/(2i), Q = Dbar-D, H = X*X + P*P.
    """
    if name not in OPERATOR_NAMES:
        raise ValueError(f"unknown operator name {name!r}; expected one of {OPERATOR_NAMES}")
    return _LatticeAtoms(lattice)[name]


def adjoint(M: OperatorMatrix) -> OperatorMatrix:
    """Conjugate transpose, same band radius."""
    return OperatorMatrix(M.lattice, M.entries.conj().T.copy(), M.shift_radius)


def bracket(kind: str, M1: OperatorMatrix, M2: OperatorMatrix) -> OperatorMatrix:
    """Commutator or anticommutator of two operators on the same lattice."""
    if kind == "commutator":
        return M1 @ M2 - M2 @ M1
    if kind == "anticommutator":
        return M1 @ M2 + M2 @ M1
    raise ValueError(f"unknown bracket kind {kind!r}")


def apply(M: OperatorMatrix, f: GridFunction) -> GridFunction:
    """Matrix-vector action of an operator on a grid function."""
    if M.lattice != f.lattice:
        raise ValueError("operator and function live on different lattices")
    return GridFunction(f.lattice, M.entries @ f.values)


def interior_residual(M: OperatorMatrix, margin: int) -> float:
    """Largest |entry| over rows margin..n-margin-1 (all columns).

    The margin excludes the rows corrupted by truncation; an empty row range
    is rejected rather than reported as a vacuous zero.
    """
    n = M.lattice.n_points
    if margin < 0:
        raise ValueError("margin must be non-negative")
    if 2 * margin >= n:
        raise ValueError(f"margin {margin} leaves no interior rows on {n} points")
    block = M.entries[margin:n - margin, :]
    return float(np.max(np.abs(block)))


# ---------------------------------------------------------------------------
# evaluation of expressions on a lattice
# ---------------------------------------------------------------------------

def to_matrix(op: SymbolicOperator, lattice: MomentumLattice) -> OperatorMatrix:
    """Evaluate a normal form on a lattice: sum c_{k,m}(a) diag(p^k) Shift^m."""
    n = lattice.n_points
    momenta = lattice.momenta()
    total = np.zeros((n, n), dtype=complex)
    radius = 0
    for (k, m), poly in op.items():
        coeff = poly.evaluate(lattice.a)
        total += coeff * (momenta.astype(complex) ** k)[:, None] * np.eye(n, k=m)
        radius = max(radius, abs(m))
    return OperatorMatrix(lattice, total, radius)


def expression_matrix(expr, lattice: MomentumLattice) -> OperatorMatrix:
    """Evaluate an expression (AST or text) directly with truncated matrices."""
    if isinstance(expr, str):
        expr = parse(expr)
    atoms = _LatticeAtoms(lattice)
    return _as_matrix(_fold(expr, atoms), atoms)


def _as_matrix(value, atoms) -> OperatorMatrix:
    """A fold result as a matrix: a Python number c stands for c*I."""
    if isinstance(value, OperatorMatrix):
        return value
    return atoms["I"].scaled(value)


def _scalar_of(M: OperatorMatrix):
    """The scalar c if M == c*I exactly, else None."""
    n = M.lattice.n_points
    c = M.entries[0, 0]
    if np.array_equal(M.entries, c * np.eye(n)):
        return c
    return None


def _times(x, y):
    if isinstance(x, OperatorMatrix):
        return x @ y if isinstance(y, OperatorMatrix) else x.scaled(y)
    return y.scaled(x) if isinstance(y, OperatorMatrix) else x * y


def _plus(op: str, x, y, atoms):
    if isinstance(x, OperatorMatrix) or isinstance(y, OperatorMatrix):
        x, y = _as_matrix(x, atoms), _as_matrix(y, atoms)
    return x + y if op == "+" else x - y


def _fold(node, atoms):
    """Value of an expression tree: an OperatorMatrix or a Python number."""
    if isinstance(node, Atom):
        return atoms[node.name]
    if isinstance(node, IntLit):
        return node.value
    if isinstance(node, Neg):
        return -_fold(node.operand, atoms)
    if isinstance(node, Power):
        base = _fold(node.base, atoms)
        result = base if node.exponent else 1
        for _ in range(node.exponent - 1):
            result = _times(result, base)
        return result
    if not isinstance(node, (Bracket, BinOp)):
        raise TypeError(f"not an expression node: {node!r}")
    left = _fold(node.left, atoms)
    right = _fold(node.right, atoms)
    if isinstance(node, Bracket):
        op = "-" if node.kind == "commutator" else "+"
        return _plus(op, _times(left, right), _times(right, left), atoms)
    if node.op == "*":
        return _times(left, right)
    if node.op == "/":
        c = _scalar_of(right) if isinstance(right, OperatorMatrix) else right
        if c is None or c == 0:
            raise ValueError("division is only defined by nonzero scalars")
        return left.scaled(1.0 / c) if isinstance(left, OperatorMatrix) else left / c
    return _plus(node.op, left, right, atoms)


def verify_identity_suite(lattice: MomentumLattice, seed: int = 181054) -> list:
    """Check every operator identity on the truncated matrices.

    Each row of `algebra.IDENTITIES` with a margin is evaluated on the
    lattice and reported with the largest residual entry at least `margin`
    rows inside the window.  The grammar has no adjoint, so the hermiticity
    rows and the adjoint relation between the shifts are checked here; the
    latter on random grid functions vanishing at both endpoints.
    """
    n = lattice.n_points
    if n < 8:
        raise ValueError(f"identity suite needs n >= 8, got {n}")
    desc = lattice.descriptor()
    atoms = _LatticeAtoms(lattice)
    reports = [
        ResidualReport(name, interior_residual(_as_matrix(_fold(tree, atoms), atoms), margin),
                       margin, desc)
        for name, tree, margin in _NUMERIC_IDENTITIES
    ]
    A, Abar, P, X = atoms["A"], atoms["Abar"], atoms["P"], atoms["X"]
    for name, resid in (("P_hermitian", P - adjoint(P)),
                        ("X_hermitian", X - adjoint(X)),
                        ("Abar_is_A_adjoint", Abar - adjoint(A))):
        reports.append(ResidualReport(name, interior_residual(resid, 0), 0, desc))

    # <f|A g> = <Abar f|g> on random functions vanishing at both endpoints.
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(4):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f[0] = f[-1] = 0.0
        g[0] = g[-1] = 0.0
        gf = GridFunction(lattice, f)
        gg = GridFunction(lattice, g)
        lhs = inner_product(gf, apply(A, gg))
        rhs = inner_product(apply(Abar, gf), gg)
        worst = max(worst, abs(lhs - rhs))
    reports.append(ResidualReport("A_adjoint_inner_product", worst, 0, desc))
    return reports


def unit_gaussian(p: np.ndarray) -> np.ndarray:
    """Default continuum-scan test function exp(-p^2/2)."""
    return np.exp(-np.asarray(p, dtype=float) ** 2 / 2.0)


def window_lattice(spacing: float, window: tuple = (-8.0, 8.0)) -> MomentumLattice:
    """Smallest lattice with the given spacing whose points cover the window."""
    lo, hi = window
    if not hi > lo:
        raise ValueError(f"empty window {window}")
    n = int(math.floor((hi - lo) / spacing + 1e-9)) + 1
    return MomentumLattice(p0=lo, a=spacing, n_points=n)


def continuum_scan(spacings, test_function=None, window: tuple = (-8.0, 8.0)) -> ConvergenceTable:
    """Residual of the canonical commutation relation as the spacing shrinks.

    For each spacing a the test function is sampled on a lattice covering the
    window and r(a) = max_j |(([X,P] + i I) f)(p_j)| / max|f| is measured on
    interior rows.  Returns the table together with the least-squares slope
    of log r against log a.
    """
    spacings = tuple(float(s) for s in spacings)
    if len(spacings) < 3:
        raise ValueError(f"need at least 3 spacings, got {len(spacings)}")
    if any(s <= 0 for s in spacings):
        raise ValueError("spacings must be positive")
    if any(s2 >= s1 for s1, s2 in zip(spacings, spacings[1:])):
        raise ValueError("spacings must be strictly decreasing")
    fn = test_function if test_function is not None else unit_gaussian

    residuals = []
    for a in spacings:
        lat = window_lattice(a, window)
        f = np.asarray(fn(lat.momenta()), dtype=complex)
        X = build_operator(lat, "X").entries
        P = build_operator(lat, "P").entries
        g = X @ (P @ f) - P @ (X @ f) + 1j * f
        residuals.append(float(np.max(np.abs(g[1:-1])) / np.max(np.abs(f))))

    if all(r > 0 for r in residuals):
        slope = float(np.polyfit(np.log(spacings), np.log(residuals), 1)[0])
    else:
        slope = math.nan  # a vanishing residual has no log-log scaling
    return ConvergenceTable(spacings, tuple(residuals), slope)


def reports_to_csv(reports) -> str:
    lines = [RESIDUAL_CSV_HEADER]
    for r in reports:
        lines.append(f"{r.identity_name},{r.margin_rows},{fmt_real(r.max_interior_residual)}")
    return "\n".join(lines) + "\n"


def report_to_dict(r: ResidualReport) -> dict:
    return {
        "identity_name": r.identity_name,
        "max_interior_residual": r.max_interior_residual,
        "margin_rows": r.margin_rows,
        "lattice": r.lattice,
    }


def convergence_to_csv(table: ConvergenceTable) -> str:
    lines = [CONVERGENCE_CSV_HEADER]
    for a, r in zip(table.spacings, table.residuals):
        lines.append(f"{fmt_real(a)},{fmt_real(r)},"
                     f"{fmt_real(math.log(a))},{fmt_real(math.log(r))}")
    lines.append(f"slope,{fmt_real(table.slope)},,")
    return "\n".join(lines) + "\n"


def convergence_to_dict(table: ConvergenceTable) -> dict:
    rows = [
        {"a": a, "r": r, "log_a": math.log(a), "log_r": math.log(r)}
        for a, r in zip(table.spacings, table.residuals)
    ]
    return {"rows": rows, "slope": table.slope}
