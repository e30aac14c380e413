"""Position-operator eigenvectors in momentum space.

The eigenvalue equation for the symmetrized difference operator X reduces to
the three-term recurrence phi(p+a) - phi(p-a) = 2iax phi(p).  Both routes to
the solution are implemented: stepping the recurrence with the boundary seed
phi(p_-1) = 0, and the closed form built from the unimodular root
alpha = iax - sqrt(1 - a^2 x^2).  Normalization is done by direct summation;
the closed normalization formula for |phi(p_0)| is kept as a comparison
target only (it corresponds to summing the first N points, see
`normalization_formula`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .lattice import GridFunction, MomentumLattice, inner_product
from .operators import build_operator


@dataclass(frozen=True)
class AlphaValue:
    """The unimodular recurrence root for position eigenvalue x at spacing a."""

    x: float
    a: float
    alpha: complex


@dataclass(frozen=True, eq=False)
class EigenResult:
    """A position-eigenvector candidate phi on a lattice."""

    lattice: MomentumLattice
    x: float
    phi: GridFunction
    phi0: complex
    method: str


def alpha(x: float, a: float) -> AlphaValue:
    """alpha = iax - sqrt(1 - a^2 x^2); unimodular for |ax| <= 1."""
    s = a * x
    if math.isnan(s):
        raise ValueError(f"a*x is not a number: a={a}, x={x}")
    if abs(s) > 1:
        raise ValueError(f"eigenvalue outside lattice band: |a*x| = {abs(s)} > 1")
    return AlphaValue(x, a, complex(-math.sqrt(max(1.0 - s * s, 0.0)), s))


def eigenvector_recurrence(lattice: MomentumLattice, x: float,
                           phi0: complex = 1.0 + 0.0j) -> EigenResult:
    """Step the recurrence phi_{j+1} = phi_{j-1} + 2iax phi_j from phi_{-1} = 0."""
    alpha(x, lattice.a)  # band validation
    n = lattice.n_points
    t = 2.0j * lattice.a * x
    values = np.empty(n, dtype=complex)
    values[0] = phi0
    prev = 0.0 + 0.0j
    for j in range(n - 1):
        values[j + 1] = prev + t * values[j]
        prev = values[j]
    return EigenResult(lattice, x, GridFunction(lattice, values), complex(phi0),
                       "recurrence")


def eigenvector_closed_form(lattice: MomentumLattice, x: float,
                            phi0: complex = 1.0 + 0.0j) -> EigenResult:
    """phi_j = phi0 (alpha^(j+1) - (-conj(alpha))^(j+1)) / (alpha + conj(alpha)).

    Requires |ax| < 1 strictly: on the band edge the denominator
    alpha + conj(alpha) = -2 sqrt(1 - a^2 x^2) vanishes.
    """
    al = alpha(x, lattice.a).alpha
    denom = 2.0 * al.real
    if denom == 0.0:
        raise ValueError("degenerate denominator: alpha + conj(alpha) = 0 "
                         "on the band edge |a*x| = 1")
    exps = np.arange(1, lattice.n_points + 1)
    values = phi0 * (np.power(al, exps) - np.power(-al.conjugate(), exps)) / denom
    return EigenResult(lattice, x, GridFunction(lattice, values), complex(phi0),
                       "closed_form")


def normalization_direct(result: EigenResult) -> float:
    """Positive s with s*phi of unit norm under the lattice inner product."""
    norm_sq = result.lattice.a * float(np.sum(np.abs(result.phi.values) ** 2))
    if norm_sq == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return 1.0 / math.sqrt(norm_sq)


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
    al = alpha(x, a).alpha
    al2 = al * al
    denom = al2 + 1.0
    if abs(denom) < 1e-12:
        raise ValueError("degenerate bracket: alpha^2 + 1 vanishes")
    tail = ((-al2) ** (N + 1) - (-1.0 / al2) ** N) / denom
    bracket = 2 * N + 1 + tail.real
    # the bracket is real in exact arithmetic; a large imaginary residue
    # means the evaluation left its numerically meaningful range
    if abs(tail.imag) > 1e-6 * max(1.0, abs(bracket)):
        raise ValueError("degenerate bracket: imaginary residue too large")
    if bracket <= 0.0:
        raise ValueError(f"degenerate bracket value {bracket}")
    return math.sqrt((2.0 * al.real) ** 2 / (a * bracket))


def truncated_spectrum(lattice: MomentumLattice) -> np.ndarray:
    """Ascending eigenvalues of the truncated X matrix (Hermitian tridiagonal),
    by a dense eigensolver on its dense view."""
    X = build_operator(lattice, "X")
    return np.linalg.eigvalsh(X.entries)


def normalized(result: EigenResult) -> EigenResult:
    """Copy of the result rescaled to unit norm."""
    s = normalization_direct(result)
    return EigenResult(result.lattice, result.x,
                       GridFunction(result.lattice, s * result.phi.values),
                       s * result.phi0, result.method)


def result_envelope(result: EigenResult, is_normalized: bool) -> dict:
    """JSON envelope fields for an eigenvector export."""
    return {
        "x": result.x,
        "a": result.lattice.a,
        "n": result.lattice.n_points,
        "method": result.method,
        "phi0": result.phi0,
        "normalized": is_normalized,
    }


def unit_norm_check(result: EigenResult) -> float:
    """|<phi|phi> - 1| for a supposedly normalized result."""
    return abs(inner_product(result.phi, result.phi) - 1.0)


def phase_seed(phase: float) -> complex:
    """Unit seed phi0 = exp(i*phase)."""
    return cmath.exp(1j * phase)
