"""Banded truncated representations of the lattice operators.

Every operator here is a short-range stencil on a finite window of the
momentum grid: the shifts A/Abar, the one-sided difference quotients D/Dbar,
multiplication by momentum P, the symmetrized position operator X, the
curvature operator Q and H = X^2 + P^2 reach at most a few neighbours.  So each
is stored as its diagonals, and sums, products, adjoints and residuals cost
O(n * band) time and memory.  Truncation zeroes everything beyond the window
(Dirichlet convention), so operator identities that hold on the unbounded grid
hold here on interior rows only; `interior_residual` measures exactly that.

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


def _rows(m: int, n: int) -> slice:
    """The rows i of an n-point lattice whose column i+m is on the lattice;
    empty, with start == stop, when |m| >= n."""
    return slice(min(n, max(0, -m)), max(0, n - max(0, m)))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Truncated operator on a lattice, stored as its diagonals.

    `bands` has shape (2*shift_radius + 1, n): row shift_radius + m holds
    M[i, i+m] at index i, and 0 wherever i+m falls outside the lattice.  No
    entry farther than shift_radius from the diagonal has a place, so the
    storage is the band.  The radius is carried through arithmetic: max under
    +/-, sum under products.  `entries` is the dense matrix, built on demand
    for the eigensolver and for tests.
    """

    lattice: MomentumLattice
    bands: np.ndarray
    shift_radius: int

    def __post_init__(self):
        if self.shift_radius < 0:
            raise ValueError("shift_radius must be non-negative")
        bands = np.array(self.bands, dtype=complex)
        shape = (2 * self.shift_radius + 1, self.lattice.n_points)
        if bands.shape != shape:
            raise ValueError(f"expected bands of shape {shape}, got {bands.shape}")
        bands.setflags(write=False)
        object.__setattr__(self, "bands", bands)

    @classmethod
    def from_dense(cls, lattice: MomentumLattice, dense, shift_radius: int) -> "OperatorMatrix":
        """The diagonals of a dense n x n matrix; rejects entries off the band."""
        n = lattice.n_points
        dense = np.asarray(dense, dtype=complex)
        if dense.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {dense.shape}")
        bands = np.zeros((2 * shift_radius + 1, n), dtype=complex)
        for m in range(-shift_radius, shift_radius + 1):
            bands[shift_radius + m, _rows(m, n)] = np.diagonal(dense, m)
        # every nonzero of the dense matrix must have landed in a diagonal
        if np.count_nonzero(bands) != np.count_nonzero(dense):
            raise ValueError("nonzero entry outside the declared band")
        return cls(lattice, bands, shift_radius)

    @property
    def entries(self) -> np.ndarray:
        """Read-only dense n x n matrix of the operator."""
        n, r = self.lattice.n_points, self.shift_radius
        dense = np.zeros((n, n), dtype=complex)
        idx = np.arange(n)
        for m in range(-r, r + 1):
            i = idx[_rows(m, n)]
            dense[i, i + m] = self.bands[r + m, i]
        dense.setflags(write=False)
        return dense

    def _same_lattice(self, other: "OperatorMatrix"):
        if self.lattice != other.lattice:
            raise ValueError("operators live on different lattices")

    def _widened(self, radius: int) -> np.ndarray:
        """The bands padded with zero diagonals out to a larger radius."""
        pad = radius - self.shift_radius
        if not pad:
            return self.bands
        bands = np.zeros((2 * radius + 1, self.lattice.n_points), dtype=complex)
        bands[pad:2 * radius + 1 - pad] = self.bands
        return bands

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._same_lattice(other)
        r = max(self.shift_radius, other.shift_radius)
        return OperatorMatrix(self.lattice, self._widened(r) + other._widened(r), r)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._same_lattice(other)
        r = max(self.shift_radius, other.shift_radius)
        return OperatorMatrix(self.lattice, self._widened(r) - other._widened(r), r)

    def __neg__(self) -> "OperatorMatrix":
        return OperatorMatrix(self.lattice, -self.bands, self.shift_radius)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Truncated convolution of diagonals.

        (LR)[i, i+m] = sum over m1 + m2 = m of L[i, i+m1] * R[i+m1, i+m], each
        entry summed in ascending column i+m1, as a dense product summing in
        column order would.  Columns off the lattice hold zeros and add none.
        """
        self._same_lattice(other)
        n = self.lattice.n_points
        r1, r2 = self.shift_radius, other.shift_radius
        r = r1 + r2
        out = np.zeros((2 * r + 1, n), dtype=complex)
        for m1 in range(-r1, r1 + 1):
            rows = _rows(m1, n)
            # kept 2-d: numpy multiplies a (1,) by a (1, 1) array in a loop
            # that rounds differently from the loop every other shape takes
            left = self.bands[r1 + m1, None, rows]
            right = other.bands[:, rows.start + m1:rows.stop + m1]
            out[r + m1 - r2:r + m1 + r2 + 1, rows] += left * right
        return OperatorMatrix(self.lattice, out, r)

    def scaled(self, c: complex) -> "OperatorMatrix":
        return OperatorMatrix(self.lattice, c * self.bands, self.shift_radius)


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


def _shift(lattice: MomentumLattice, m: int) -> OperatorMatrix:
    """The radius-1 operator with ones on diagonal m (A for m = 1, Abar for -1)."""
    bands = np.zeros((3, lattice.n_points), dtype=complex)
    bands[1 + m, _rows(m, lattice.n_points)] = 1
    return OperatorMatrix(lattice, bands, 1)


_PRIMITIVES = {
    "I": lambda lat: OperatorMatrix(lat, np.ones((1, lat.n_points)), 0),
    "A": lambda lat: _shift(lat, 1),
    "Abar": lambda lat: _shift(lat, -1),
    "P": lambda lat: OperatorMatrix(lat, lat.momenta()[None, :], 0),
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
    """Conjugate transpose, same band radius: diagonal m is the conjugate of
    diagonal -m, moved m places."""
    n, r = M.lattice.n_points, M.shift_radius
    bands = np.zeros_like(M.bands)
    for m in range(-r, r + 1):
        rows = _rows(m, n)
        bands[r + m, rows] = M.bands[r - m, rows.start + m:rows.stop + m].conj()
    return OperatorMatrix(M.lattice, bands, r)


def bracket(kind: str, M1: OperatorMatrix, M2: OperatorMatrix) -> OperatorMatrix:
    """Commutator or anticommutator of two operators on the same lattice."""
    if kind == "commutator":
        return M1 @ M2 - M2 @ M1
    if kind == "anticommutator":
        return M1 @ M2 + M2 @ M1
    raise ValueError(f"unknown bracket kind {kind!r}")


def apply(M: OperatorMatrix, f: GridFunction) -> GridFunction:
    """Matrix-vector action of an operator on a grid function, each entry
    summed in ascending column."""
    if M.lattice != f.lattice:
        raise ValueError("operator and function live on different lattices")
    n, r = M.lattice.n_points, M.shift_radius
    out = np.zeros(n, dtype=complex)
    for m in range(-r, r + 1):
        rows = _rows(m, n)
        out[rows] += M.bands[r + m, rows] * f.values[rows.start + m:rows.stop + m]
    return GridFunction(f.lattice, out)


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
    return float(np.max(np.abs(M.bands[:, margin:n - margin])))


# ---------------------------------------------------------------------------
# evaluation of expressions on a lattice
# ---------------------------------------------------------------------------

def to_matrix(op: SymbolicOperator, lattice: MomentumLattice) -> OperatorMatrix:
    """Evaluate a normal form on a lattice: diagonal m is sum_k c_{k,m}(a) p^k."""
    n = lattice.n_points
    momenta = lattice.momenta().astype(complex)
    radius = op.shift_radius
    bands = np.zeros((2 * radius + 1, n), dtype=complex)
    for (k, m), poly in op.items():
        rows = _rows(m, n)
        bands[radius + m, rows] += poly.evaluate(lattice.a) * momenta[rows] ** k
    return OperatorMatrix(lattice, bands, radius)


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
    r = M.shift_radius
    scalar = np.zeros_like(M.bands)
    scalar[r] = M.bands[r, 0]
    return M.bands[r, 0] if np.array_equal(M.bands, scalar) else None


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
    latter on random grid functions vanishing at both endpoints.  A residual
    that is not finite means the entries overflowed double precision; it is
    rejected with a ValueError naming the identity and the lattice.  So is a
    spacing whose square underflows to 0, since H_shift_form divides by a^2.
    """
    n = lattice.n_points
    if n < 8:
        raise ValueError(f"identity suite needs n >= 8, got {n}")
    desc = lattice.descriptor()
    if lattice.a * lattice.a == 0.0:
        raise ValueError(f"spacing a={fmt_real(lattice.a)} of the lattice {desc} is too small "
                         "for the identity suite: a^2 underflows to 0 in double precision")
    with np.errstate(over="ignore", invalid="ignore"):
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
    for r in reports:
        if not math.isfinite(r.max_interior_residual):
            raise ValueError(f"identity {r.identity_name} on the lattice {desc} has no finite "
                             "residual: its matrix entries overflowed double precision")
    return reports


def unit_gaussian(p: np.ndarray) -> np.ndarray:
    """Default continuum-scan test function exp(-p^2/2)."""
    return np.exp(-np.asarray(p, dtype=float) ** 2 / 2.0)


def window_lattice(spacing: float, window: tuple = (-8.0, 8.0)) -> MomentumLattice:
    """Smallest lattice with the given spacing whose points cover the window.

    The scan measures interior rows, so a spacing that leaves fewer than 3
    points in the window is rejected.
    """
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"window must be finite with lo < hi, got {lo}:{hi}")
    n = int(math.floor((hi - lo) / spacing + 1e-9)) + 1
    if n < 3:
        raise ValueError(f"spacing {spacing} leaves {n} point(s) in the window {lo}:{hi}; "
                         "the scan needs at least 3 for an interior row")
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
        f = GridFunction(lat, fn(lat.momenta()))
        X, P = build_operator(lat, "X"), build_operator(lat, "P")
        g = apply(X, apply(P, f)).values - apply(P, apply(X, f)).values + 1j * f.values
        scale = np.max(np.abs(f.values))
        if not scale > 0:
            raise ValueError(f"the test function vanishes on the lattice {lat.descriptor()}, "
                             "so the residual has no scale")
        residuals.append(float(np.max(np.abs(g[1:-1])) / scale))

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
