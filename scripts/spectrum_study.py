#!/usr/bin/env python3
"""Spectrum of the truncated position operator versus the closed pattern.

The truncated X matrix is Hermitian tridiagonal Toeplitz, so its eigenvalues
should be cos(k*pi/(n+1))/a, k = 1..n, all inside the band [-1/a, 1/a].  This
script measures the deviation of `eigen.truncated_spectrum` from that pattern
as the window grows, and reports how the extreme eigenvalues crowd the band
edges.  The spectrum is LAPACK's `dsterf` on X's two diagonals (its real
diagonal and the moduli of its off-diagonal), or the dense `eigvalsh` of the
same tridiagonal matrix where numpy bundles no `dsterf`.
"""

import argparse

import numpy as np

from momlat.eigen import truncated_spectrum
from momlat.lattice import MomentumLattice


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=1.0, help="lattice spacing")
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[2, 4, 8, 16, 32, 64, 128, 256])
    args = ap.parse_args()

    a = args.a
    inside = True
    print(f"{'n':>6}  {'max|ev - pattern|':>18}  {'band margin 1/a - max|ev|':>26}")
    for n in args.sizes:
        ev = truncated_spectrum(MomentumLattice(0.0, a, n))
        ks = np.arange(1, n + 1)
        pattern = np.sort(np.cos(ks * np.pi / (n + 1)) / a)
        dev = float(np.max(np.abs(ev - pattern)))
        margin = 1.0 / a - float(np.max(np.abs(ev)))
        inside = inside and margin > 0
        print(f"{n:6d}  {dev:18.3e}  {margin:26.6e}")
    if inside:
        print("\nthe band fills as n grows but no eigenvalue leaves [-1/a, 1/a]")


if __name__ == "__main__":
    main()
