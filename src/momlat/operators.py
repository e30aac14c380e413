"""Banded truncated representations of the lattice operators.

Every operator here is a short-range stencil on a finite window of the
momentum grid: the shifts A/Abar, the one-sided difference quotients D/Dbar,
multiplication by momentum P, the symmetrized position operator X, the
curvature operator Q and H = X^2 + P^2 reach at most a few neighbours.  So each
is stored as its diagonals, and sums, products, adjoints and residuals cost
O(n * band) time and memory.  Truncation zeroes everything beyond the window
(Dirichlet convention), so operator identities that hold on the unbounded grid
hold here on interior rows only; `interior_residual` measures exactly that.

The algebra is not restated here: A, Abar, P and I are their exact
`algebra.ATOMS` normal forms evaluated by `to_matrix`, every other operator
folds its `algebra.DEFINITIONS` row, and `verify_identity_suite` folds the
`algebra.IDENTITIES` rows that have a margin, then three hermiticity rows
such as "X - adj(X)".  All are trees parsed once at import, so building an
operator or running the suite parses nothing.  The tree walker is
`algebra.fold`; this module supplies two of its domains: the lattice
domain, in which scalar subtrees stay Python numbers standing for c*I, so
a*A scales A, and the applied domain, which keeps those rules but holds each
operator as the map v -> M v on stacks of grid values, and so refuses the
adjoint of an operator.  `continuum_scan` folds "[X,P] + i" in the applied domain,
parsed once at import, and applies the result to its one test function,
exp(-p^2/2) sampled as a real array, so it builds no banded product; it
reads the rows inside the `algebra.margin` of that text, which the
window's minimum of points is derived from too.  The
suite folds its rows as the one DAG `algebra` interned, with one
`algebra.FoldMemo`: a banded matrix that several rows share, such as
[X,H] + 2*i*P, is built once per call and dropped after its last use.  The
suite's adjoint check draws its four pairs of random grid functions as two
(4, n) stacks and applies A and Abar to each stack at once, with the kernel
that `apply` runs on one row; it holds only the two shifts and the stacks,
not the other operators, so it stays below the peak of the folds.

Every operator that this module's own arithmetic makes (sums, products,
scalings, adjoints, `to_matrix`) takes over the bands it has just allocated
instead of copying them, and skips the constructor: `_result` sets the
fields and runs only `__post_init__`, which checks the shape and sets the
bands read-only.  The public `OperatorMatrix` constructor copies, so a
caller's array is never aliased or made read-only.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (ATOMS, DEFINITION_TREES, IDENTITY_TREES, OPERATOR_NAMES, FoldMemo,
                      SymbolicOperator, fold, margin, parse, shared_visits)
from .formatting import fmt_real
from .lattice import GridFunction, MomentumLattice
from .record import Record, ValueRecord

RESIDUAL_CSV_HEADER = "identity,margin,residual"
# Seed of the random grid functions on which the suite checks <f|A g> = <Abar f|g>.
ADJOINT_SEED = 181054
CONVERGENCE_CSV_HEADER = "a,r,log_a,log_r"
DEFAULT_WINDOW = (-8.0, 8.0)
# Most lattice points `continuum_scan` samples at one spacing.  A scan peaks
# near 320 bytes a point (320 under tracemalloc at 2e5 and 1.6e6 points,
# 272-276 in max RSS over the import at 4e5 and 1.6e6), so the cap keeps one
# spacing near 1 GB; a ladder down to 1.6e6 points takes ~0.45 s (2-core VM).
MAX_CONTINUUM_POINTS = 3_000_000
# Most lattice points one `continuum_scan` samples over all its spacings, so
# its run time is bounded, not only its memory.  A halving ladder whose finest
# lattice fits the cap above stays within it unless it halves on down to 3
# points (21 spacings on the default window, 6000003 points).
MAX_CONTINUUM_LADDER_POINTS = 2 * MAX_CONTINUUM_POINTS
# Largest lattice `verify_identity_suite` accepts (`verify --n`, `well
# --levels`).  The suite peaks near 784 bytes a point under tracemalloc (at
# 2e4 and 1e5 points) and 810-830 bytes a point of max RSS above the import
# (at 1e5 and 2e5), so the cap keeps one suite under ~1 GB.
MAX_SUITE_POINTS = 1_000_000
# Largest relative spacing error max_j |p_{j+1} - p_j - a| / a of a lattice
# the identity suite accepts: past 2^-26, half of a's significand is lost to
# the rounding of p0 + j*a.
MAX_SPACING_ERROR = 2.0 ** -26


def _rows(m: int, n: int) -> slice:
    """The rows i of an n-point lattice whose column i+m is on the lattice;
    empty, with start == stop, when |m| >= n."""
    if m < 0:
        return slice(min(n, -m), n)
    return slice(0, max(0, n - m))


class OperatorMatrix(Record):
    """Truncated operator on a lattice, stored as its diagonals.

    `bands` has shape (2*shift_radius + 1, n): row shift_radius + m holds
    M[i, i+m] at index i, and 0 wherever i+m falls outside the lattice.  No
    entry farther than shift_radius from the diagonal has a place, so the
    storage is the band.  The radius is carried through arithmetic: max under
    +/-, sum under products.  `entries` is the dense matrix, built on demand
    for the tests.  The constructor stores a read-only complex copy of
    `bands`; only `_result` hands over an array without the copy.  Either
    way `__post_init__` checks the shape and sets the bands read-only.  An
    operator is equal only to itself.
    """

    def __init__(self, lattice: MomentumLattice, bands, shift_radius: int):
        self.__dict__.update(lattice=lattice, bands=np.array(bands, dtype=complex),
                             shift_radius=shift_radius)
        self.__post_init__()

    def __post_init__(self):
        if self.shift_radius < 0:
            raise ValueError("shift_radius must be non-negative")
        bands = self.bands
        shape = (2 * self.shift_radius + 1, self.lattice.n_points)
        if bands.shape != shape:
            raise ValueError(f"expected bands of shape {shape}, got {bands.shape}")
        bands.setflags(write=False)

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
        return _result(lattice, bands, shift_radius)

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
        if self.lattice is not other.lattice and self.lattice != other.lattice:
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
        return _result(self.lattice, self._widened(r) + other._widened(r), r)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        self._same_lattice(other)
        r = max(self.shift_radius, other.shift_radius)
        return _result(self.lattice, self._widened(r) - other._widened(r), r)

    def __neg__(self) -> "OperatorMatrix":
        return _result(self.lattice, -self.bands, self.shift_radius)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Truncated convolution of diagonals.

        (LR)[i, i+m] = sum over m1 + m2 = m of L[i, i+m1] * R[i+m1, i+m], each
        entry summed in ascending column i+m1, as a dense product summing in
        column order would.  Columns off the lattice hold zeros and add none.
        Where a factor is diagonal, each entry is its one product plus the
        0.0 the sum starts with, added once to the whole result.
        """
        self._same_lattice(other)
        n = self.lattice.n_points
        r1, r2 = self.shift_radius, other.shift_radius
        r = r1 + r2
        if r1 == 0:
            # row i of every diagonal of R times L[i, i], in one multiply
            out = np.multiply(self.bands, other.bands)
        else:
            out = np.zeros((2 * r + 1, n), dtype=complex)
            # diagonals m1 with |m1| >= n have no row on the lattice
            for m1 in range(-min(r1, n - 1), min(r1, n - 1) + 1):
                lo, hi = max(0, -m1), min(n, n - m1)
                # kept 2-d: numpy multiplies a (1,) by a (1, 1) array in a loop
                # that rounds differently from the loop every other shape takes
                left = self.bands[r1 + m1, None, lo:hi]
                right = other.bands[:, lo + m1:hi + m1]
                view = out[r + m1 - r2:r + m1 + r2 + 1, lo:hi]
                if r2 == 0:
                    # R diagonal: one product per entry, nothing to sum
                    np.multiply(left, right, out=view)
                else:
                    # added into the view in place: `out[...] += ...` would
                    # also write the view back through a second indexing
                    np.add(view, np.multiply(left, right), out=view)
        if r1 == 0 or r2 == 0:
            # the 0 + x the sum starts with: -0.0 becomes 0.0, inf and nan stay
            np.add(out, 0.0, out=out)
        return _result(self.lattice, out, r)

    def scaled(self, c: complex) -> "OperatorMatrix":
        return _result(self.lattice, c * self.bands, self.shift_radius)


def _result(lattice: MomentumLattice, bands: np.ndarray, radius: int) -> OperatorMatrix:
    """The operator with freshly allocated complex `bands`, which it takes
    over: the constructor is skipped, and `__post_init__` checks the shape
    and sets the array read-only without copying it."""
    op = object.__new__(OperatorMatrix)
    # written directly, as the constructor does: a record refuses setattr
    op.__dict__.update(lattice=lattice, bands=bands, shift_radius=radius)
    op.__post_init__()
    return op


class ResidualReport(ValueRecord):
    """Outcome of one identity check: worst interior matrix entry of LHS-RHS.
    `vars()` gives the fields in the order of the CLI's JSON report."""

    def __init__(self, identity_name: str, max_interior_residual: float, margin_rows: int,
                 lattice: str):
        self.__dict__.update(identity_name=identity_name,
                             max_interior_residual=max_interior_residual,
                             margin_rows=margin_rows, lattice=lattice)


class ConvergenceTable(ValueRecord):
    """Residual-vs-spacing table of a continuum scan plus the log-log slope."""

    def __init__(self, spacings: tuple, residuals: tuple, slope: float):
        self.__dict__.update(spacings=spacings, residuals=residuals, slope=slope)


# The numeric suite's rows: the table's rows with a margin, then hermiticity.
_NUMERIC_IDENTITIES = (*(row for row in IDENTITY_TREES if row[2] is not None),
                       *((name, parse(text), 0) for name, text in (
                           ("P_hermitian", "P - adj(P)"), ("X_hermitian", "X - adj(X)"),
                           ("Abar_is_A_adjoint", "Abar - adj(A)"))))
# The shared nodes of one fold of those rows, for the memo of that fold.
_NUMERIC_VISITS = shared_visits(tree for _, tree, _ in _NUMERIC_IDENTITIES)


class _LatticeAtoms(dict):
    """The lattice domain of `algebra.fold`: the grammar's atoms on one
    lattice, each built on first lookup and kept.

    i and a are Python numbers, and so is every scalar subtree: a number c
    stands for c*I, so a*A scales A and c*I is built only where a number
    meets a matrix in a sum.  Only a nonzero number divides; a matrix, even
    one whose truncated bands are c*I, is refused.  A definition row is
    folded in place, so the operators it reads are kept too; every other
    operator is its exact `algebra.ATOMS` normal form evaluated by `to_matrix`.
    """

    def __init__(self, lattice: MomentumLattice):
        super().__init__(i=1j, a=lattice.a)
        self.lattice = lattice

    def __missing__(self, name):
        tree = DEFINITION_TREES.get(name)
        value = to_matrix(ATOMS[name], self.lattice) if tree is None else fold(tree, self)
        self[name] = value
        return value

    def matrix(self, value) -> "OperatorMatrix":
        """A fold result as a matrix: a Python number c stands for c*I."""
        return value if isinstance(value, OperatorMatrix) else self["I"].scaled(value)

    @staticmethod
    def literal(value: int) -> int:
        return value

    @staticmethod
    def times(x, y):
        if isinstance(x, _OPERATORS):
            return x @ y if isinstance(y, _OPERATORS) else x.scaled(y)
        return y.scaled(x) if isinstance(y, _OPERATORS) else x * y

    def plus(self, op: str, x, y):
        if isinstance(x, _OPERATORS) or isinstance(y, _OPERATORS):
            x, y = self.matrix(x), self.matrix(y)
        return x + y if op == "+" else x - y

    @staticmethod
    def divide(x, y):
        if isinstance(y, _OPERATORS) or y == 0:
            raise ValueError("division is only defined by nonzero scalars")
        return x.scaled(1.0 / y) if isinstance(x, _OPERATORS) else x / y

    @staticmethod
    def adjoint(x):
        return adjoint(x) if isinstance(x, OperatorMatrix) else x.conjugate()


class _Applied:
    """An operator of the applied domain: the map v -> M v on (k, n) stacks
    of grid values, with the arithmetic the lattice domain asks of a matrix.
    A product applies its right factor first, so no banded product is built."""

    __slots__ = ("map",)

    def __init__(self, map_):
        self.map = map_

    def __matmul__(self, other: "_Applied") -> "_Applied":
        return _Applied(lambda v: self.map(other.map(v)))

    def __add__(self, other: "_Applied") -> "_Applied":
        return _Applied(lambda v: self.map(v) + other.map(v))

    def __sub__(self, other: "_Applied") -> "_Applied":
        return _Applied(lambda v: self.map(v) - other.map(v))

    def __neg__(self) -> "_Applied":
        return _Applied(lambda v: -self.map(v))

    def scaled(self, c: complex) -> "_Applied":
        return _Applied(lambda v: c * self.map(v))


# The values that the lattice and applied domains treat as operators; any
# other value is a Python number c standing for c*I.
_OPERATORS = (OperatorMatrix, _Applied)


class _AppliedAtoms(_LatticeAtoms):
    """The applied domain of `algebra.fold`: the lattice domain's rules, with
    every operator an `_Applied` map.  An atom applies its `build_operator`
    matrix through `_apply_rows` (a composite atom is not re-folded here, so
    X keeps its bits), a number c maps v to c*v, and a matrix divisor is
    refused with the lattice domain's message.  The adjoint of a number is its
    conjugate; that of an operator is refused, as a map has no transpose."""

    def __missing__(self, name):
        M = build_operator(self.lattice, name)
        value = self[name] = _Applied(lambda v: _apply_rows(M, v))
        return value

    @staticmethod
    def matrix(value) -> _Applied:
        return value if isinstance(value, _Applied) else _Applied(lambda v: value * v)

    @staticmethod
    def adjoint(x):
        if isinstance(x, _Applied):
            raise ValueError("the applied domain takes no adjoint of an operator")
        return x.conjugate()


def build_operator(lattice: MomentumLattice, name: str) -> OperatorMatrix:
    """Truncated matrix of one named operator.

    A shifts samples down-index (row j picks up sample j+1) and has a zero
    last row; Abar is its mirror; P = diag(p_j); I is the identity.  These
    four are `to_matrix` of their `algebra.ATOMS` normal forms.  The others
    fold their `algebra.DEFINITIONS` row: D = (A-I)/a, Dbar = (I-Abar)/a,
    X = (D+Dbar)/(2i), Q = Dbar-D, H = X*X + P*P.
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
    return _result(M.lattice, bands, r)


def apply(M: OperatorMatrix, f: GridFunction) -> GridFunction:
    """Matrix-vector action of an operator on a grid function, each entry
    summed in ascending column."""
    if M.lattice != f.lattice:
        raise ValueError("operator and function live on different lattices")
    return GridFunction(f.lattice, _apply_rows(M, f.values[None])[0])


def _apply_rows(M: OperatorMatrix, values: np.ndarray) -> np.ndarray:
    """M applied to each row of a (k, n) stack of grid values, each entry
    summed in ascending column.  Row by row these are the bits of k one-row
    calls but for the sign of a NaN: where two NaNs meet in a sum, a stack
    of several rows takes numpy's strided add loop, which may pass on the
    other one."""
    n, r = M.lattice.n_points, M.shift_radius
    out = np.zeros(values.shape, dtype=complex)
    for m in range(-min(r, n - 1), min(r, n - 1) + 1):
        lo, hi = max(0, -m), min(n, n - m)
        # the band kept 2-d, as in `__matmul__`, so one row takes the same
        # multiply loop as a stack of several
        view = out[:, lo:hi]
        np.add(view, np.multiply(M.bands[r + m, None, lo:hi], values[:, lo + m:hi + m]),
               out=view)
    return out


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
    return float(np.abs(M.bands[:, margin:n - margin]).max())


# ---------------------------------------------------------------------------
# evaluation of expressions on a lattice
# ---------------------------------------------------------------------------

def to_matrix(op: SymbolicOperator, lattice: MomentumLattice) -> OperatorMatrix:
    """Evaluate a normal form on a lattice: diagonal m is sum_k c_{k,m}(a) p^k,
    accumulated in ascending (k, m).  The momenta are read only when some
    term has a power of P, so A, Abar, I and the operators folded from them
    alone never compute p_j.  A coefficient past double precision is a
    ValueError."""
    n = lattice.n_points
    try:
        coefficients = op.evaluate(lattice.a)
    except OverflowError:
        raise ValueError("a coefficient of the normal form overflows double precision at "
                         f"a={fmt_real(lattice.a)}") from None
    momenta = lattice.momenta().astype(complex) if any(k for k, _ in coefficients) else None
    radius = op.shift_radius
    bands = np.zeros((2 * radius + 1, n), dtype=complex)
    for k, m in sorted(coefficients):
        rows, c = _rows(m, n), coefficients[k, m]
        bands[radius + m, rows] += c * momenta[rows] ** k if k else c
    return _result(lattice, bands, radius)


def expression_matrix(expr, lattice: MomentumLattice) -> OperatorMatrix:
    """Evaluate an expression (AST or text) directly with truncated matrices.
    A scalar subtree or a matrix entry past double precision is a ValueError."""
    if isinstance(expr, str):
        expr = parse(expr)
    atoms = _LatticeAtoms(lattice)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = atoms.matrix(fold(expr, atoms))
    except OverflowError:
        raise ValueError("a scalar of the expression overflows double precision on the "
                         f"lattice {lattice.descriptor()}") from None
    # an entry that overflowed stays inf, or turns nan where it meets 0 or -inf
    if not np.isfinite(matrix.bands).all():
        raise ValueError("an entry of the expression overflows double precision on the "
                         f"lattice {lattice.descriptor()}")
    return matrix


def verify_identity_suite(lattice: MomentumLattice) -> list:
    """Check every operator identity on the truncated matrices.

    Each row of `algebra.IDENTITIES` with a margin, then each hermiticity
    row, is evaluated on the lattice and reported with the largest residual
    entry at least `margin` rows inside the window.  The adjoint relation
    between the shifts is then checked on four pairs of random grid
    functions vanishing at both endpoints, as one batch
    (`_adjoint_residual`) once every operator but A and Abar is released,
    so the batch's stacks take the place they held and the suite's peak
    stays that of its folds.  A residual that is not finite means the
    entries overflowed double precision; it is rejected with a ValueError
    naming the identity and the lattice.  Before any operator is built, a
    lattice of more than MAX_SUITE_POINTS is rejected, and so are a spacing
    whose square underflows to 0 (H_shift_form divides by a^2) and a
    relative spacing error above MAX_SPACING_ERROR, which two equal
    consecutive momenta raise to at least 1.
    """
    n = lattice.n_points
    if n < 8:
        raise ValueError(f"identity suite needs at least 8 lattice points, got {n}")
    if n > MAX_SUITE_POINTS:
        raise ValueError(f"identity suite on n={n} points exceeds the limit of "
                         f"{MAX_SUITE_POINTS}: it needs ~900 bytes a point")
    desc = lattice.descriptor()
    if lattice.a * lattice.a == 0.0:
        raise ValueError(f"spacing a={fmt_real(lattice.a)} of the lattice {desc} is too small "
                         "for the identity suite: a^2 underflows to 0 in double precision")
    # one expression, so the momenta and their differences are freed before the fold
    spacing_error = float(np.max(np.abs(np.diff(lattice.momenta()) - lattice.a))) / lattice.a
    if spacing_error > MAX_SPACING_ERROR:
        raise ValueError(f"the momenta of the lattice {desc} are unevenly spaced in double "
                         f"precision: their relative spacing error {spacing_error:.2g} "
                         "exceeds 2^-26, so its residuals would measure the rounded "
                         "momenta, not the identities")
    with np.errstate(over="ignore", invalid="ignore"):
        atoms, memo = _LatticeAtoms(lattice), FoldMemo(_NUMERIC_VISITS)
        reports = [
            ResidualReport(name, interior_residual(atoms.matrix(fold(tree, atoms, memo)), margin),
                           margin, desc)
            for name, tree, margin in _NUMERIC_IDENTITIES
        ]
        A, Abar = atoms["A"], atoms["Abar"]
        del atoms  # the batch below peaks with only the two shifts held
        reports.append(ResidualReport("A_adjoint_inner_product", _adjoint_residual(A, Abar),
                                      0, desc))
    for r in reports:
        if not math.isfinite(r.max_interior_residual):
            raise ValueError(f"identity {r.identity_name} on the lattice {desc} has no finite "
                             "residual: its matrix entries overflowed double precision")
    return reports


def _adjoint_residual(A: OperatorMatrix, Abar: OperatorMatrix) -> float:
    """max |<f|A g> - <Abar f|g>| over four pairs of random grid functions
    vanishing at both endpoints.

    The four pairs are one (4, n) stack each, drawn by one call from the
    stream of ADJOINT_SEED in the order of four f, g draws of n values, real
    parts first.  Each inner product a * sum_j conj(f_j) g_j sums its row
    pairwise, as `inner_product` sums one function, so every value is the
    one that pair by pair gives.
    """
    n, a = A.lattice.n_points, A.lattice.a
    draws = np.random.default_rng(ADJOINT_SEED).standard_normal((4, 4, n))
    # the parts set directly: d0 + 1j*d1 has the same bits, through two temporaries
    f, g = np.empty((4, n), dtype=complex), np.empty((4, n), dtype=complex)
    f.real, f.imag, g.real, g.imag = draws.transpose(1, 0, 2)
    del draws
    f[:, 0] = f[:, -1] = 0.0
    g[:, 0] = g[:, -1] = 0.0
    lhs = np.sum(np.conj(f) * _apply_rows(A, g), axis=1)
    rhs = np.sum(np.conj(_apply_rows(Abar, f)) * g, axis=1)
    worst = 0.0
    for left, right in zip(lhs, rhs):
        worst = max(worst, abs(complex(a * left) - complex(a * right)))
    return worst


def unit_gaussian(p: np.ndarray) -> np.ndarray:
    """The continuum scan's test function exp(-p^2/2), in [0, 1] on finite
    momenta; where p^2 overflows it is exp(-inf) = 0, exact in double precision."""
    with np.errstate(over="ignore"):
        return np.exp(-np.asarray(p, dtype=float) ** 2 / 2.0)


# The operator whose action on the test function `continuum_scan` measures,
# and the rows at each end of its truncated action that the scan skips.
_CANONICAL_RESIDUAL = parse("[X,P] + i")
_SCAN_MARGIN = margin(_CANONICAL_RESIDUAL)[1]


def window_lattice(spacing: float, window: tuple) -> MomentumLattice:
    """Smallest lattice with the given spacing whose points cover the window.

    The spacing must be finite and positive.  The scan measures the rows
    inside its residual's `algebra.margin` m, so a spacing that leaves fewer
    than 2*m + 1 = 3 points in the window is rejected, and so is one that
    needs more than MAX_CONTINUUM_POINTS, before anything is allocated.
    """
    if not math.isfinite(spacing):
        raise ValueError(f"spacings must be finite, got {spacing}")
    if spacing <= 0:
        raise ValueError("spacings must be positive")
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError(f"window must be finite with lo < hi, got {lo}:{hi}")
    steps = (hi - lo) / spacing + 1e-9
    n = math.floor(steps) + 1 if math.isfinite(steps) else math.inf
    if n > MAX_CONTINUUM_POINTS:
        raise ValueError(f"spacing {spacing} needs {fmt_real(n)} points to cover the window "
                         f"{lo}:{hi}, more than the limit of {MAX_CONTINUUM_POINTS}")
    if n < 2 * _SCAN_MARGIN + 1:
        raise ValueError(f"spacing {spacing} leaves {n} point(s) in the window {lo}:{hi}; "
                         f"the scan needs at least {2 * _SCAN_MARGIN + 1} for an interior row")
    return MomentumLattice(p0=lo, a=spacing, n_points=n)


def continuum_scan(spacings, window=DEFAULT_WINDOW) -> ConvergenceTable:
    """Residual of the canonical commutation relation as the spacing shrinks.

    For each spacing a, f = `unit_gaussian` is sampled on the `window_lattice`
    covering the window and r(a) = max_j |(([X,P] + i I) f)(p_j)| / max f is
    measured on the rows inside the residual's `algebra.margin`, with
    [X,P] + i folded in the applied domain: X and P are applied to f, never
    multiplied.  Returns the table together with the least-squares slope of
    log r against log a.  Every spacing's lattice, then the ladder's order,
    then its total against MAX_CONTINUUM_LADDER_POINTS, is checked before
    the first is scanned.
    """
    spacings = tuple(float(s) for s in spacings)
    if len(spacings) < 3:
        raise ValueError(f"need at least 3 spacings, got {len(spacings)}")
    lattices = [window_lattice(a, window) for a in spacings]
    if any(s2 >= s1 for s1, s2 in zip(spacings, spacings[1:])):
        raise ValueError("spacings must be strictly decreasing")
    total = sum(lat.n_points for lat in lattices)
    if total > MAX_CONTINUUM_LADDER_POINTS:
        raise ValueError(f"the spacings need {total} points in all, more than the limit of "
                         f"{MAX_CONTINUUM_LADDER_POINTS} for one ladder")

    residuals = []
    for lat in lattices:
        f = unit_gaussian(lat.momenta())
        scale = np.max(f)
        if scale == 0:
            raise ValueError(f"the test function vanishes on the lattice {lat.descriptor()}, "
                             "so the residual has no scale")
        if scale < np.finfo(float).tiny:
            raise ValueError(f"the test function's largest value on the lattice "
                             f"{lat.descriptor()} is {fmt_real(scale)}, below the smallest "
                             "normal double, so the residual has no scale")
        g = fold(_CANONICAL_RESIDUAL, _AppliedAtoms(lat)).map(f[None])[0]
        residuals.append(float(np.max(np.abs(g[_SCAN_MARGIN:g.size - _SCAN_MARGIN])) / scale))

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


def _log_rows(table: ConvergenceTable) -> list:
    """(a, r, log a, log r) per spacing.  A residual of 0 has no log: the
    first spacing that has one is named in a ValueError."""
    for a, r in zip(table.spacings, table.residuals):
        if r == 0:
            raise ValueError(f"the residual at spacing {fmt_real(a)} is 0, which has no "
                             "logarithm, so the scan has no log-log row for it")
    return [(a, r, math.log(a), math.log(r)) for a, r in zip(table.spacings, table.residuals)]


def convergence_to_csv(table: ConvergenceTable) -> str:
    rows = [",".join(map(fmt_real, row)) for row in _log_rows(table)]
    return "\n".join([CONVERGENCE_CSV_HEADER, *rows, f"slope,{fmt_real(table.slope)},,"]) + "\n"


def convergence_to_dict(table: ConvergenceTable) -> dict:
    rows = [dict(zip(CONVERGENCE_CSV_HEADER.split(","), row)) for row in _log_rows(table)]
    return {"rows": rows, "slope": table.slope}
