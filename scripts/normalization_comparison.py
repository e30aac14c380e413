#!/usr/bin/env python3
"""Side-by-side comparison of the two eigenvector normalization routes.

For the seed magnitude |phi(p_0)| of a unit-norm position eigenvector this
prints, per (x, a, N): the closed normalization expression evaluated
literally, the direct sum over the first N lattice points, and the direct sum
over N+1 points.  The literal expression tracks the first-N-points sum; the
off-by-one against the (N+1)-point sum is the documented discrepancy.
"""

import argparse
import math

from momlat.eigen import (
    eigenvector_recurrence,
    normalization_direct,
    normalization_direct_first_n,
    normalization_formula,
)
from momlat.lattice import MomentumLattice


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=1.0, help="lattice spacing")
    ap.add_argument("--points", type=int, nargs="+", default=[4, 5, 8, 16, 64])
    ap.add_argument("--x-values", type=float, nargs="+",
                    default=[0.0, 0.3, 0.7, 0.99])
    args = ap.parse_args()

    a = args.a
    agree = True
    print(f"{'x':>8} {'N':>6}  {'formula':>16} {'direct first N':>16} "
          f"{'direct N+1 pts':>16}")
    for x in args.x_values:
        for N in args.points:
            formula = normalization_formula(x, a, N)
            full = eigenvector_recurrence(MomentumLattice(0.0, a, N + 1), x, 1.0)
            d_head = normalization_direct_first_n(full, N)
            d_full = normalization_direct(full)
            agree = agree and math.isclose(formula, d_head, rel_tol=1e-12)
            print(f"{x:8.3f} {N:6d}  {formula:16.12f} {d_head:16.12f} {d_full:16.12f}")
    if agree:
        print("\nformula == direct-first-N everywhere; the N+1-point sum generally differs")


if __name__ == "__main__":
    main()
