"""Command-line front end: identity suites, eigenvectors, spectra, scans.

Exit codes: 0 on success, 1 when a verification fails its tolerance, 2 for
usage or validation errors.  All data output is byte-deterministic (fixed
15-significant-digit decimal formatting, no timestamps).
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from . import algebra, eigen, operators
from .formatting import dumps, fmt_real, format_rows
from .lattice import MomentumLattice, csv_momenta, grid_to_csv, square_well_lattice

SYMBOLIC_CSV_HEADER = "identity,zero,term_count"
# Largest lattice `eigvec` accepts.  A job peaks near 300 bytes a point with
# --format json (327 MB of max RSS at 10^6 points) and 190 with csv (403 MB
# at 2e6), so the cap keeps one job under ~1 GB.
MAX_EIGVEC_POINTS = 3_000_000


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _lattice_args(sub, n_default=64):
    sub.add_argument("--p0", type=float, default=0.0, help="base momentum (default 0)")
    sub.add_argument("--a", type=float, default=0.1, help="lattice spacing (default 0.1)")
    sub.add_argument("--n", type=int, default=n_default,
                     help=f"number of lattice points (default {n_default})")


def _output_args(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momlat",
        description="Operator calculus on a discrete momentum lattice: "
                    "identity verification, position eigenvectors, spectra, "
                    "and continuum-limit scans.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify", help="run the symbolic and numeric identity suites")
    _lattice_args(p)
    _output_args(p)
    p.add_argument("--tol", type=float, default=1e-10,
                   help="numeric residual tolerance (default 1e-10)")
    p.set_defaults(handler=run_verify)

    p = subs.add_parser("check", help="normal-order an expression and test for zero")
    p.add_argument("expression", help=f"expression over {', '.join(algebra.ATOM_NAMES)}")
    p.set_defaults(handler=run_check)

    p = subs.add_parser("eigvec", help="position eigenvector on a finite lattice")
    p.add_argument("--x", type=float, required=True, help="position eigenvalue")
    p.add_argument("--phi0-phase", type=float, default=0.0,
                   help="phase of the seed value (default 0)")
    _lattice_args(p, n_default=8)
    _output_args(p)
    p.set_defaults(handler=run_eigvec)

    p = subs.add_parser("spectrum", help="eigenvalues of the truncated position operator")
    _lattice_args(p, n_default=16)
    _output_args(p)
    p.set_defaults(handler=run_spectrum)

    p = subs.add_parser("continuum", help="convergence of [X,P] -> -i as the spacing shrinks")
    p.add_argument("--spacings", default="0.1,0.05,0.025,0.0125",
                   help="comma-separated decreasing spacings")
    window = "{:g}:{:g}".format(*operators.DEFAULT_WINDOW)
    p.add_argument("--window", default=window,
                   help=f"momentum window lo:hi (default {window})")
    _output_args(p)
    p.set_defaults(handler=run_continuum)

    p = subs.add_parser("well", help="square-well lattice report plus the identity suites")
    p.add_argument("--L", type=float, required=True, help="well width")
    p.add_argument("--levels", type=int, default=16, help="number of levels (default 16)")
    p.add_argument("--hbar", type=float, default=1.0, help="hbar (default 1)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="numeric residual tolerance (default 1e-10)")
    _output_args(p)
    p.set_defaults(handler=run_well)

    # argparse reads a token that starts with '-' as an option unless it looks
    # like -1 or -.5, so `--p0 -1e3` and `--window -8:8` would lose their
    # value: in each subcommand, a token that starts with '-' and is neither
    # one of its options nor a '--' token is a value, so `verify --out --bogus`
    # is still refused.  `check` has no option but help: there every other
    # token that starts with '-', bar '--', is its expression.
    value = re.compile("-[^-]")
    for sub in subs.choices.values():
        sub._negative_number_matcher = value
    subs.choices["check"]._negative_number_matcher = re.compile("-")
    return parser


def _suite_report(args, lattice: MomentumLattice, lattice_doc: dict, csv_head: str = "") -> int:
    """Run both identity suites on the lattice and emit the report.

    Exit 1 when a symbolic identity is not exactly zero or a numeric
    residual is not below --tol.  A --tol that is negative or not a number
    is a usage error, and so is an infinite one: every residual would pass
    it, and JSON has no infinity to report it with.
    """
    if not args.tol >= 0:
        raise ValueError(f"tolerance must be a non-negative number, got --tol {args.tol}")
    if args.tol == math.inf:
        raise ValueError(f"tolerance must be finite, got --tol {args.tol}")
    symbolic = algebra.verify_symbolic_suite()
    numeric = operators.verify_identity_suite(lattice)
    passed = all(c.zero for c in symbolic) and \
        all(r.max_interior_residual < args.tol for r in numeric)
    if args.format == "json":
        doc = {
            "lattice": lattice_doc,
            "tolerance": args.tol,
            "symbolic": [vars(c) for c in symbolic],
            "numeric": [vars(r) for r in numeric],
            "passed": passed,
        }
        _emit(dumps(doc) + "\n", args.out)
    else:
        lines = [SYMBOLIC_CSV_HEADER]
        for c in symbolic:
            lines.append(f"{c.identity},{'true' if c.zero else 'false'},"
                         f"{c.normal_form_term_count}")
        _emit(csv_head + "\n".join(lines) + "\n\n" + operators.reports_to_csv(numeric),
              args.out)
    return 0 if passed else 1


def run_verify(args) -> int:
    lattice = MomentumLattice(args.p0, args.a, args.n)
    return _suite_report(args, lattice,
                         {"p0": lattice.p0, "a": lattice.a, "n": lattice.n_points})


def run_check(args) -> int:
    nf = algebra.normal_form(algebra.parse(args.expression))
    print(algebra.format_normal_form(nf))
    print("ZERO" if nf.is_zero else "NONZERO")
    return 0 if nf.is_zero else 1


def run_eigvec(args) -> int:
    """Eigenvector of X at --x; a CSV's p column is checked before the vector is computed."""
    if args.n > MAX_EIGVEC_POINTS:
        raise ValueError(f"eigenvector of n={args.n} points exceeds the limit of "
                         f"{MAX_EIGVEC_POINTS}: it needs ~300 bytes a point")
    lattice = MomentumLattice(args.p0, args.a, args.n)
    phi0 = eigen.phase_seed(args.phi0_phase)
    if args.format == "csv":
        csv_momenta(lattice)
    closed = eigen.eigenvector_closed_form(lattice, args.x, phi0)
    rec = eigen.eigenvector_recurrence(lattice, args.x, phi0)
    scale = np.max(np.abs(closed.phi.values))
    max_dev = float(np.max(np.abs(closed.phi.values - rec.phi.values)) / scale)
    unit = eigen.normalized(closed)

    formula_n = args.n - 1
    summary = {"x": unit.x, "a": lattice.a, "n": lattice.n_points, "method": unit.method,
               "phi0": unit.phi0, "normalized": True, "max_dev_recurrence_vs_closed": max_dev,
               "phi0_magnitude_direct": abs(unit.phi0), "formula_N": formula_n}
    try:
        summary["phi0_magnitude_formula"] = eigen.normalization_formula(
            args.x, args.a, formula_n)
    except ValueError:
        summary["phi0_magnitude_formula"] = None
    if formula_n >= 1:
        summary["phi0_magnitude_direct_first_N"] = \
            eigen.normalization_direct_first_n(rec, formula_n) * abs(phi0)
    else:
        summary["phi0_magnitude_direct_first_N"] = None

    if args.format == "json":
        summary["values"] = unit.phi.values
        _emit(dumps(summary) + "\n", args.out)
    else:
        _emit(grid_to_csv(unit.phi), args.out)
        stream = sys.stdout if args.out else sys.stderr
        stream.write(dumps(summary) + "\n")
    return 0


def run_spectrum(args) -> int:
    lattice = MomentumLattice(args.p0, args.a, args.n)
    values = eigen.truncated_spectrum(lattice)
    if args.format == "json":
        doc = {"p0": lattice.p0, "a": lattice.a, "n": lattice.n_points,
               "eigenvalues": values}
        _emit(dumps(doc) + "\n", args.out)
    else:
        _emit("".join(["k,x\n", *format_rows("%d,%.15g\n", (values,), start=1)]), args.out)
    return 0


def _parse_spacings(text: str):
    try:
        return tuple(float(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise ValueError(f"bad spacing list {text!r}")


def _parse_window(text: str):
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError:
        raise ValueError(f"bad window {text!r}, expected lo:hi")
    return lo, hi


def run_continuum(args) -> int:
    table = operators.continuum_scan(_parse_spacings(args.spacings),
                                     window=_parse_window(args.window))
    if args.format == "json":
        _emit(dumps(operators.convergence_to_dict(table)) + "\n", args.out)
    else:
        _emit(operators.convergence_to_csv(table), args.out)
    return 0


def run_well(args) -> int:
    lattice = square_well_lattice(args.L, args.levels, args.hbar)
    head = ("p0,a,levels\n"
            f"{fmt_real(lattice.p0)},{fmt_real(lattice.a)},{lattice.n_points}\n\n")
    return _suite_report(args, lattice,
                         {"p0": lattice.p0, "a": lattice.a, "levels": lattice.n_points},
                         head)


def _parse(argv: list) -> argparse.Namespace:
    """The namespace `_PARSER.parse_args(argv)` returns, parsed once.

    The full parse reads every token twice: the top-level parser classifies
    each one before it hands the rest to the subcommand's parser.  So when
    argv starts with a subcommand name, that subcommand's parser alone reads
    the rest.  Only when it leaves a token over, or argv starts with no
    subcommand name, does the full parse run.  After either parse, an option
    left at [] or '--' by `--opt=--` (Python 3.10-3.12 or 3.13; the `check`
    expression may be '--') is refused as `--opt` with no value is.
    """
    sub = _SUBCOMMANDS.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        args.command = argv[0]
    if sub is None or extras:
        args = _PARSER.parse_args(argv)
    for dest, value in vars(args).items():
        if value == [] or value == "--" and dest != "expression":
            _PARSER._subparsers._group_actions[0].choices[args.command].error(
                f"argument --{dest.replace('_', '-')}: expected one argument")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"momlat: error: {exc}", file=sys.stderr)
        return 2


# The grammar is a constant of the program, built once at import: parse_args
# leaves the parser unchanged, help text is formatted when it is printed (so
# it follows the COLUMNS of that moment), and the handlers it holds look up
# everything else through module globals at call time.
_PARSER = build_parser()
# The subcommand parsers by name: the objects `_PARSER` hands each subcommand to.
_SUBCOMMANDS = _PARSER._subparsers._group_actions[0].choices


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
