"""Position-operator eigenvectors in momentum space.

The eigenvalue equation for the symmetrized difference operator X reduces to
the three-term recurrence phi(p+a) - phi(p-a) = 2iax phi(p).  Both routes to
the solution are implemented: stepping the recurrence with the boundary seed
phi(p_-1) = 0, and the closed form built from the unimodular root
alpha = iax - sqrt(1 - a^2 x^2).  Normalization is done by direct summation;
the closed normalization formula for |phi(p_0)| is kept as a comparison
target only (it corresponds to summing the first N points, see
`normalization_formula`).

The closed form needs z^k for k = 1..n at the two roots z = alpha and
-conj(alpha).  numpy's complex `power` multiplies out integer exponents
|k| < 100 and hands every larger one to libm's `cpow`, which glibc evaluates
as cexp(k * clog z), recomputing the same clog z for every element.
`_powers` keeps the first 99 exponents on `np.power` and takes the log once
for the rest, so the array is bitwise `np.power`'s (the other product of
(k + 0j) * log z is an exact zero) at about a seventh of the cost.  The
combining expression phi0 * (P(alpha) - P(-conj(alpha))) / denom must not be
rewritten: above 256 KiB numpy elides its temporaries, so `phi0 * temp` runs
in place as `temp * phi0`, and complex multiplication is not bitwise
commutative here.

The spectrum of the truncated X is solved in real arithmetic on two
diagonals, in O(n^2) time and O(n) memory.  X is Hermitian tridiagonal with
a real diagonal, and a diagonal phase similarity carries it to the real
symmetric tridiagonal matrix with the same diagonal and off-diagonals |e|.
LAPACK's values-only Hermitian driver (`zheevd`, behind numpy's dense
`eigvalsh`) scales X into a safe range, reduces it to that same real
tridiagonal form, runs the root-free QL iteration `dsterf` (Pal-Walker-Kahan)
and scales back; the reduction of an already tridiagonal matrix leaves d and
|e| exactly as they are.  So `truncated_spectrum` scales d and |e| as the
driver does and calls `dsterf` itself, from the OpenBLAS that numpy wheels
bundle, and the eigenvalues are bitwise those of the complex dense solve.
Where that library or its ILP64 symbol is absent, the same d and |e| go to
the dense real `eigvalsh`, with the same bits at O(n^3) time and O(n^2)
memory.  `cos(k*pi/(n+1))/a` is an oracle for the tests, never the result.
"""

from __future__ import annotations

import cmath
import ctypes
import functools
import math
from pathlib import Path

import numpy as np

from .formatting import fmt_real
from .lattice import GridFunction, MomentumLattice
from .operators import build_operator
from .record import Record

# Largest lattice `truncated_spectrum` accepts.  The `dsterf` path needs O(n)
# memory; the cap is set by the dense fallback, which keeps an n x n real
# matrix (128 MiB at the cap) and takes O(n^3) time.
MAX_SPECTRUM_POINTS = 4096

# dsyevd's safe range for the largest entry |T_ij| (its RMIN and RMAX, from
# LAPACK's safe minimum and precision); outside it the driver scales T.
_SMLNUM = float(np.finfo(float).tiny / np.finfo(float).eps)
_RMIN, _RMAX = math.sqrt(_SMLNUM), math.sqrt(1.0 / _SMLNUM)


class EigenResult(Record):
    """A position-eigenvector candidate phi on a lattice; equal only to itself."""

    def __init__(self, lattice: MomentumLattice, x: float, phi: GridFunction, phi0: complex,
                 method: str):
        self.__dict__.update(lattice=lattice, x=x, phi=phi, phi0=phi0, method=method)


def alpha(x: float, a: float) -> complex:
    """The unimodular recurrence root alpha = iax - sqrt(1 - a^2 x^2) for the
    position eigenvalue x at spacing a; |ax| <= 1 is required."""
    s = a * x
    if math.isnan(s):
        raise ValueError(f"a*x is not a number: a={a}, x={x}")
    if abs(s) > 1:
        raise ValueError(f"eigenvalue outside lattice band: |a*x| = {abs(s)} > 1")
    return complex(-math.sqrt(max(1.0 - s * s, 0.0)), s)


def eigenvector_recurrence(lattice: MomentumLattice, x: float,
                           phi0: complex = 1.0 + 0.0j) -> EigenResult:
    """Step the recurrence phi_{j+1} = phi_{j-1} + 2iax phi_j from phi_{-1} = 0."""
    alpha(x, lattice.a)  # band validation
    t = 2.0j * lattice.a * x
    if lattice.n_points > 1 and not cmath.isfinite(t):
        raise ValueError(f"the recurrence step 2*i*a*x is not finite at a={fmt_real(lattice.a)}: "
                         "2*a overflows double precision")
    # Python complex arithmetic rounds as numpy's complex128 does here: t is
    # purely imaginary, so each component of t*phi_j has one exactly-zero term
    prev, cur = 0.0 + 0.0j, complex(phi0)
    values = [cur]
    for _ in range(lattice.n_points - 1):
        prev, cur = cur, prev + t * cur
        values.append(cur)
    return EigenResult(lattice, x, GridFunction(lattice, values), complex(phi0),
                       "recurrence")


# numpy's complex `power` multiplies out integer exponents below this bound;
# it evaluates every other one as libm's cpow, cexp(k * clog z).
_POWER_CUTOFF = 100


def _powers(z: complex, exps: np.ndarray) -> np.ndarray:
    """`np.power(z, exps)` bit for bit, for exps = 1..n: the exponents from
    `_POWER_CUTOFF` on are exp(k * log z) with log z taken once."""
    head = _POWER_CUTOFF - 1
    if exps.size <= head:
        return np.power(z, exps)
    out = np.empty(exps.size, dtype=complex)
    out[:head] = np.power(z, exps[:head])
    tail = out[head:]
    np.multiply(exps[head:], np.log(z), out=tail)
    np.exp(tail, out=tail)
    return out


def eigenvector_closed_form(lattice: MomentumLattice, x: float,
                            phi0: complex = 1.0 + 0.0j) -> EigenResult:
    """phi_j = phi0 (alpha^(j+1) - (-conj(alpha))^(j+1)) / (alpha + conj(alpha)).

    Requires |ax| < 1 strictly: on the band edge the denominator
    alpha + conj(alpha) = -2 sqrt(1 - a^2 x^2) vanishes.  Both powers come
    from `_powers`, bitwise `np.power` with the log of each root taken once
    for the exponents from 100 on.  The combining expression stays as
    written: its bits depend on numpy's temporary elision (see the module
    docstring).
    """
    al = alpha(x, lattice.a)
    denom = 2.0 * al.real
    if denom == 0.0:
        raise ValueError("degenerate denominator: alpha + conj(alpha) = 0 "
                         "on the band edge |a*x| = 1")
    exps = np.arange(1, lattice.n_points + 1)
    values = phi0 * (_powers(al, exps) - _powers(-al.conjugate(), exps)) / denom
    return EigenResult(lattice, x, GridFunction(lattice, values), complex(phi0),
                       "closed_form")


def _unit_scale(a: float, values: np.ndarray) -> float:
    """Positive s with s*values of unit norm under the inner product of a
    lattice of spacing a."""
    norm_sq = a * float(np.sum(np.abs(values) ** 2))
    if norm_sq == 0.0:
        raise ValueError("cannot normalize the zero vector")
    if not math.isfinite(norm_sq):
        raise ValueError(f"cannot normalize at a={fmt_real(a)}: the squared "
                         "norm a*sum|phi|^2 overflows double precision")
    return 1.0 / math.sqrt(norm_sq)


def normalization_direct(result: EigenResult) -> float:
    """Positive s with s*phi of unit norm under the lattice inner product."""
    return _unit_scale(result.lattice.a, result.phi.values)


def normalization_direct_first_n(result: EigenResult, N: int) -> float:
    """`normalization_direct` of the result's first N points only.

    This is the direct sum that `normalization_formula(x, a, N)` evaluates in
    closed form.  For a recurrence result it equals, bitwise, the direct
    normalization of a fresh recurrence on the N-point lattice, whose values
    are this prefix.
    """
    if not 1 <= N <= result.lattice.n_points:
        raise ValueError(f"need 1 <= N <= {result.lattice.n_points}, got N={N}")
    return _unit_scale(result.lattice.a, result.phi.values[:N])


def normalization_formula(x: float, a: float, N: int) -> float:
    """Closed normalization expression for the seed magnitude |phi(p_0)|.

    Evaluates, literally,

        |phi(p_0)|^2 = (alpha+conj(alpha))^2
                       / ( a [ 2N+1 + ((-alpha^2)^(N+1) - (-alpha^-2)^N)
                                       / (alpha^2 + 1) ] )

    and returns the positive root.  This is a comparison target, not a
    normalizer: it matches the direct sum taken over the FIRST N lattice
    points (j = 0..N-1), not over j = 0..N; `normalization_direct` over the
    full vector is authoritative.
    """
    if N < 1:
        raise ValueError("normalization formula needs N >= 1")
    if not a > 0:
        raise ValueError(f"spacing must be positive, got a={a}")
    s = a * x
    if abs(s) >= 1:
        raise ValueError(f"need |a*x| < 1 strictly, got {abs(s)}")
    al = alpha(x, a)
    al2 = al * al
    # |alpha^2 + 1| = 2*sqrt(1 - s^2) >= 2^-25 for every double |s| < 1
    tail = ((-al2) ** (N + 1) - (-1.0 / al2) ** N) / (al2 + 1.0)
    bracket = 2 * N + 1 + tail.real
    # the bracket is real in exact arithmetic; a large imaginary residue
    # means the evaluation left its numerically meaningful range
    if abs(tail.imag) > 1e-6 * max(1.0, abs(bracket)):
        raise ValueError("degenerate bracket: imaginary residue too large")
    if bracket <= 0.0:
        raise ValueError(f"degenerate bracket value {bracket}")
    scale = a * bracket
    if not math.isfinite(scale):
        raise ValueError(f"normalization formula's a*bracket overflows double precision at "
                         f"a={a}, N={N}")
    value = math.sqrt((2.0 * al.real) ** 2 / scale)
    if not math.isfinite(value):
        raise ValueError(f"normalization formula overflows double precision at a={a}, N={N}")
    return value


@functools.cache
def _dsterf():
    """LAPACK `dsterf` from the OpenBLAS bundled with numpy, or None if absent.

    Looks only next to numpy's own install (`numpy.libs/` on Linux and
    Windows wheels, `numpy/.dylibs/` on macOS) and binds only
    `scipy_dsterf_64_`, whose name fixes its integers as 64-bit.  Returns
    solve(d, e) -> info, which overwrites d with the ascending eigenvalues
    of the symmetric tridiagonal matrix (d; e) and destroys e; both are
    checked to be writable C-contiguous float64 vectors, d of n entries and
    e of n - 1.
    """
    here = Path(np.__file__).parent
    for lib in sorted([*here.parent.glob("numpy.libs/libscipy_openblas64_*"),
                       *here.glob(".dylibs/libscipy_openblas64_*")]):
        try:
            routine = ctypes.CDLL(str(lib)).scipy_dsterf_64_
        except (OSError, AttributeError):
            continue
        vector = np.ctypeslib.ndpointer(np.float64, ndim=1, flags=("C_CONTIGUOUS", "WRITEABLE"))
        routine.argtypes = [ctypes.POINTER(ctypes.c_int64), vector, vector,
                            ctypes.POINTER(ctypes.c_int64)]
        routine.restype = None

        def solve(d, e):
            if e.size != max(d.size - 1, 0):
                raise ValueError(f"dsterf needs n - 1 off-diagonal entries, got "
                                 f"{e.size} for n={d.size}")
            info = ctypes.c_int64(0)
            routine(ctypes.byref(ctypes.c_int64(d.size)), d, e, ctypes.byref(info))
            return info.value
        return solve
    return None


def truncated_spectrum(lattice: MomentumLattice) -> np.ndarray:
    """Ascending eigenvalues of the truncated X matrix.

    X is Hermitian tridiagonal; its real diagonal d and the moduli |e| of
    its off-diagonal go, scaled as LAPACK's dense driver scales them, to
    `dsterf`, which gives bitwise the eigenvalues of the complex dense solve
    (see the module docstring).  Without `dsterf` the dense real `eigvalsh`
    solves the same d and |e|.  Lattices above MAX_SPECTRUM_POINTS, and
    spacings whose reciprocal overflows (X's entries are 1/(2a)), are
    rejected before anything is allocated.
    """
    n = lattice.n_points
    if n > MAX_SPECTRUM_POINTS:
        raise ValueError(f"spectrum of n={n} points exceeds the limit of "
                         f"{MAX_SPECTRUM_POINTS}: the dense fallback needs O(n^2) "
                         "memory and O(n^3) time")
    if not math.isfinite(1.0 / float(lattice.a)):
        raise ValueError(f"spacing a={fmt_real(lattice.a)} of the lattice {lattice.descriptor()} "
                         "is too small for the spectrum: 1/a overflows double precision")
    X = build_operator(lattice, "X")
    r = X.shift_radius
    d = X.bands[r].real.copy()
    e = np.abs(X.bands[r + 1, :n - 1])
    solve = _dsterf()
    if solve is None:
        T = np.diag(d)
        i = np.arange(n - 1)
        T[i, i + 1] = e
        T[i + 1, i] = e
        return np.linalg.eigvalsh(T)
    sigma = 1.0
    if n > 1:  # dsyevd returns a 1 x 1 matrix before it scales
        norm = max(np.abs(d).max(), e.max())
        if 0.0 < norm < _RMIN:
            sigma = _RMIN / norm
        elif norm > _RMAX:
            sigma = _RMAX / norm
    if sigma != 1.0:
        d *= sigma
        e *= sigma
    if solve(d, e) > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if sigma != 1.0:
        d *= 1.0 / sigma
    return d


def normalized(result: EigenResult) -> EigenResult:
    """Copy of the result rescaled to unit norm."""
    s = normalization_direct(result)
    return EigenResult(result.lattice, result.x,
                       GridFunction(result.lattice, s * result.phi.values),
                       s * result.phi0, result.method)


def phase_seed(phase: float) -> complex:
    """Unit seed phi0 = exp(i*phase); the phase must be finite."""
    if not math.isfinite(phase):
        raise ValueError(f"seed phase must be finite, got phase={phase}")
    return cmath.exp(1j * phase)
