#!/usr/bin/env python3
"""Continuum-limit study: how fast [X,P] approaches -i as the spacing shrinks.

Runs the residual scan for a geometric ladder of spacings and compares the
measured residuals against the smooth-function prediction r(a) ~ (a^2/2)
max|f''| (the Gaussian test function has max|f''| = 1 at the origin).  A
residual of exactly 0 has no ratio and the scan then no slope, so no
verdict is printed.  A scan the library rejects, say on a window where the
Gaussian vanishes, prints its error on one line and exits 2.
"""

import argparse
import math
import sys

from momlat.operators import DEFAULT_WINDOW, continuum_scan


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--coarsest", type=float, default=0.1,
                    help="largest spacing (default 0.1)")
    ap.add_argument("--halvings", type=int, default=4,
                    help="number of spacings, each half the previous (default 4)")
    ap.add_argument("--window", type=float, nargs=2, default=DEFAULT_WINDOW)
    args = ap.parse_args()

    spacings = tuple(args.coarsest / 2 ** k for k in range(args.halvings))
    try:
        table = continuum_scan(spacings, window=tuple(args.window))
    except ValueError as exc:
        print(f"{ap.prog}: error: {exc}", file=sys.stderr)
        sys.exit(2)

    print(f"{'a':>10}  {'r(a)':>14}  {'r/(a^2/2)':>10}  {'ratio':>8}")
    prev = None
    for a, r in zip(table.spacings, table.residuals):
        ratio = f"{prev / r:8.4f}" if prev is not None and r != 0 else "       -"
        print(f"{a:10.4g}  {r:14.6e}  {r / (a * a / 2):10.5f}  {ratio}")
        prev = r
    print(f"\nlog-log slope: {table.slope:.6f}  (second-order limit => 2)")
    if not math.isnan(table.slope) and abs(table.slope - 2.0) < 0.1:
        print("second-order convergence confirmed")


if __name__ == "__main__":
    main()
