"""Discrete momentum grid, grid functions, and the discrete integral.

The function space everything else acts on: complex-valued functions sampled
on the uniformly spaced momenta p_j = p0 + j*a, j = 0..n_points-1, with the
spacing-weighted sum as integral and the induced sesquilinear inner product.
Units are dimensionless (hbar = 1); `square_well_lattice` maps the infinite
square well onto this grid.
"""

from __future__ import annotations

import io
import math
from typing import Callable

import numpy as np

from .formatting import fmt_real, format_rows
from .record import Record, ValueRecord

GRID_CSV_HEADER = "j,p,re,im"


class MomentumLattice(ValueRecord):
    """Uniform momentum grid p_j = p0 + j*a with a finite number of points.

    Equal and hashed by (p0, a, n_points).  Every construction runs
    `__post_init__`, which checks the fields."""

    def __init__(self, p0: float, a: float, n_points: int):
        self.__dict__.update(p0=p0, a=a, n_points=n_points)
        self.__post_init__()

    def __post_init__(self):
        if not math.isfinite(self.p0):
            raise ValueError(f"base momentum must be finite, got p0={self.p0}")
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"lattice spacing must be positive and finite, got a={self.a}")
        if self.n_points < 1:
            raise ValueError(f"lattice needs at least one point, got {self.n_points}")

    def momenta(self) -> np.ndarray:
        """All grid momenta as a float array of length n_points.  A lattice
        whose last momentum p0 + a*(n-1) overflows is rejected before the
        array is allocated."""
        if not math.isfinite(self.p0 + self.a * (self.n_points - 1)):
            raise ValueError(f"the last momentum p0+a*(n-1) of the lattice {self.descriptor()} "
                             "overflows double precision")
        return self.p0 + self.a * np.arange(self.n_points, dtype=float)

    def descriptor(self) -> str:
        return f"p0={fmt_real(self.p0)},a={fmt_real(self.a)},n={self.n_points}"


class GridFunction(Record):
    """A complex-valued function sampled on a MomentumLattice: `values` is a
    read-only complex copy of the samples given.  Equal only to itself."""

    def __init__(self, lattice: MomentumLattice, values):
        vals = np.array(values, dtype=complex)
        if vals.shape != (lattice.n_points,):
            raise ValueError(f"expected {lattice.n_points} values, got shape {vals.shape}")
        vals.setflags(write=False)
        self.__dict__.update(lattice=lattice, values=vals)


def square_well_lattice(L: float, n_levels: int, hbar: float = 1.0) -> MomentumLattice:
    """Momentum grid of the 1-d infinite square well of width L.

    The allowed momenta are hbar*pi/L * (1, 2, 3, ...), so p0 = a = hbar*pi/L.
    The step is computed on the mantissas of hbar and L and scaled by their
    exponents last, so it is finite wherever hbar*pi/L is, even when hbar*pi
    overflows; while no intermediate leaves the normal range it is bitwise
    hbar*math.pi/L.  A step that overflows or underflows is rejected.
    """
    if not L > 0:
        raise ValueError(f"well width must be positive, got L={L}")
    if not hbar > 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    (mh, eh), (mL, eL) = math.frexp(hbar), math.frexp(L)
    try:
        step = math.ldexp(mh * math.pi / mL, eh - eL)
    except OverflowError:
        step = math.inf
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"the momentum step hbar*pi/L of the well with L={fmt_real(L)}, "
                         f"hbar={fmt_real(hbar)} is {fmt_real(step)}; it must be finite and "
                         "positive")
    return MomentumLattice(p0=step, a=step, n_points=n_levels)


def sample(lattice: MomentumLattice, fn: Callable[[np.ndarray], np.ndarray]) -> GridFunction:
    """Sample a vectorized callable on the lattice momenta."""
    return GridFunction(lattice, fn(lattice.momenta()))


def a_integral(f: GridFunction) -> complex:
    """Discrete integral a * sum_j f(p_j) over the whole grid."""
    return complex(f.lattice.a * np.sum(f.values))


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """<f|g> = a * sum_j conj(f(p_j)) g(p_j); conjugate-linear in f."""
    if f.lattice != g.lattice:
        raise ValueError("inner product requires both functions on the same lattice")
    return complex(f.lattice.a * np.sum(np.conj(f.values) * g.values))


def csv_momenta(lattice: MomentumLattice) -> np.ndarray:
    """The momenta as a CSV p column, rejected if the last one overflows
    (`momenta`) or two consecutive ones are equal, as rounding makes them
    where the spacing is lost: `grid_from_csv` could not read them back."""
    momenta = lattice.momenta()
    if np.any(momenta[1:] == momenta[:-1]):
        raise ValueError(f"consecutive momenta of the lattice {lattice.descriptor()} are "
                         "equal in double precision, so its CSV p column cannot be read back")
    return momenta


def grid_to_csv(f: GridFunction) -> str:
    """CSV interchange form: header `j,p,re,im`, one row per grid point.

    Numbers print as `fmt_real` prints them, 15 significant digits with -0.0
    as 0.  The rows come from `format_rows`, ROW_BLOCK points a block, so
    only one block's Python floats or kernel buffers exist at a time.  The
    p column is `csv_momenta`, so a lattice it rejects is rejected here.
    """
    columns = (csv_momenta(f.lattice), f.values.real, f.values.imag)
    return "".join([GRID_CSV_HEADER + "\n",
                    *format_rows("%d,%.15g,%.15g,%.15g\n", columns, start=0)])


def grid_from_csv(text: str) -> GridFunction:
    """Parse the `j,p,re,im` CSV form back into a GridFunction.

    A field that does not parse as its column's int or float is rejected.
    The lattice is inferred from the p column: p0 and a from its first two
    rows, so at least two rows are required.  Every row's p must then lie
    less than half a spacing from p0 + j*a, or the row is rejected.  So a
    `grid_to_csv` file fails where p1 - p0, rounded to the float step of p0,
    misreads a: at p0=1e9, a=1e-5 by 0.14%, which drifts half a spacing by
    row 365.
    """
    rows = [line for line in io.StringIO(text) if line.strip()]
    if not rows or rows[0].strip() != GRID_CSV_HEADER:
        raise ValueError(f"expected header '{GRID_CSV_HEADER}'")
    momenta = []
    values = []
    for expected_j, line in enumerate(rows[1:]):
        fields = line.strip().split(",")
        if len(fields) != 4:
            raise ValueError(f"expected 4 fields, got {len(fields)}: {line!r}")
        parsed = []
        for name, kind, field in zip(("j", "p", "re", "im"), (int, float, float, float), fields):
            try:
                parsed.append(kind(field))
            except ValueError:
                raise ValueError(f"row {expected_j}: {name}={field!r} does not parse as "
                                 f"{kind.__name__}") from None
        j, p, re, im = parsed
        if j != expected_j:
            raise ValueError(f"row index {j} out of order (expected {expected_j})")
        momenta.append(p)
        values.append(complex(re, im))
    if len(momenta) < 2:
        raise ValueError("need at least two rows to infer the lattice spacing")
    a = momenta[1] - momenta[0]
    lattice = MomentumLattice(p0=momenta[0], a=a, n_points=len(momenta))
    drift = np.abs(np.asarray(momenta) - lattice.momenta()) / a
    off = np.flatnonzero(~(drift < 0.5))
    if off.size:
        j = int(off[0])
        raise ValueError(f"row {j}: p={fmt_real(momenta[j])} lies {fmt_real(drift[j])} spacings "
                         f"from p0+j*a on the lattice {lattice.descriptor()} that rows 0 and 1 "
                         "give; it must lie less than half a spacing from it")
    return GridFunction(lattice, np.asarray(values))
