"""Shared CLI invocation helpers, the golden-file case table, the table of
inputs that must end in a usage error, the table of valid edge calls, the
table of inputs that argparse itself ends, the table of north-star-sized
calls, the table of calls across the closed form's power cutoff and the
seeded argv draw for the parser.

Importing this module does not import momlat: the helpers import it when
they are called, so `scripts/byte_diff.py` can read the tables before it
imports each tree's momlat."""

import contextlib
import io
import os
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "verify_a01_n64.csv": ("verify", "--p0", "0", "--a", "0.1", "--n", "64"),
    "verify_a01_n64.json": ("verify", "--p0", "0", "--a", "0.1", "--n", "64",
                            "--format", "json"),
    "check_AP.txt": ("check", "A*P"),
    "check_XH2.txt": ("check", "[X,H^2]"),
    "check_H3.txt": ("check", "H^3"),
    "check_mixed.txt": ("check", "(X^2 + i*P*A/3)*(2-i)/(3-2*i)/a - {Q,P}/5"),
    "check_Xpow_P.txt": ("check", "X^5*P^2*A - A*P^2*X^5 + i*X^3*Q"),
    "eigvec_x0_a1_n5.csv": ("eigvec", "--x", "0", "--a", "1", "--n", "5"),
    "eigvec_x05_a1_n8.json": ("eigvec", "--x", "0.5", "--a", "1", "--n", "8",
                              "--format", "json"),
    "eigvec_x0_a1_n5.json": ("eigvec", "--x", "0", "--a", "1", "--n", "5", "--format", "json"),
    "spectrum_n3_a1.csv": ("spectrum", "--n", "3", "--a", "1"),
    "spectrum_n9_a05.json": ("spectrum", "--n", "9", "--a", "0.5", "--format", "json"),
    "continuum_default.csv": ("continuum",),
    "well_L1_16.csv": ("well", "--L", "1", "--levels", "16"),
    "well_L1e308_hbar1e308_8.csv": ("well", "--L", "1e308", "--hbar", "1e308", "--levels", "8"),
}


# (argv, message): each call exits 2 with the message on stderr, no stdout
# and no warning or traceback.
USAGE_ERROR_CASES = [
    (("continuum", "--window=0:0.05", "--spacings", "0.1,0.05,0.025"),
     "spacing 0.1 leaves 1 point(s) in the window 0.0:0.05"),
    (("continuum", "--window=-inf:8"), "window must be finite"),
    (("continuum", "--window=100:110"), "test function vanishes"),
    (("check", "(" * 3000 + "P" + ")" * 3000), "nesting deeper than the limit"),
    (("check", "+".join(["P"] * 3000)), "tree deeper than the limit"),
    (("verify", "--a", "1e-200"),
     "spacing a=1e-200 of the lattice p0=0,a=1e-200,n=64 is too small for the identity "
     "suite: a^2 underflows to 0"),
    (("well", "--L", "1e300", "--levels", "8"), "a^2 underflows to 0"),
    (("spectrum", "--n", "8", "--a", "1e-310"),
     "spacing a=9.99999999999997e-311 of the lattice p0=0,a=9.99999999999997e-311,n=8 is "
     "too small for the spectrum: 1/a overflows double precision"),
    (("continuum", "--spacings", "nan,0.05,0.025"), "spacings must be finite, got nan"),
    (("continuum", "--spacings", "0.1,0.05,nan"), "spacings must be finite, got nan"),
    (("continuum", "--spacings", "1e-300,1e-301,1e-302"),
     "spacing 1e-300 needs 1.6e+301 points to cover the window -8.0:8.0, more than the "
     "limit of 3000000"),
    (("continuum", "--spacings", "0.1,0.05,4e-6"),
     "spacing 4e-06 needs 4000001 points to cover the window -8.0:8.0, more than the "
     "limit of 3000000"),
    (("continuum", "--spacings", "1e-318,1e-319,1e-320"), "spacing 1e-318 needs inf points"),
    (("continuum", "--window=-1e308:1e308"), "spacing 0.1 needs inf points"),
    (("eigvec", "--x", "0", "--a", "1e308", "--n", "2", "--format", "json"),
     "the recurrence step 2*i*a*x is not finite at a=1e+308: 2*a overflows double precision"),
    (("eigvec", "--x", "0", "--a", "7e307", "--n", "6", "--format", "json"),
     "cannot normalize at a=7e+307: the squared norm a*sum|phi|^2 overflows double precision"),
    (("eigvec", "--x", "0", "--a", "7e307", "--n", "4"),
     "the last momentum p0+a*(n-1) of the lattice p0=0,a=7e+307,n=4 overflows double precision"),
    (("verify", "--a", "1e308", "--n", "8"),
     "the last momentum p0+a*(n-1) of the lattice p0=0,a=1e+308,n=8 overflows double precision"),
    (("eigvec", "--x", "0.5", "--a", "1", "--n", "4", "--p0", "1e308"),
     "consecutive momenta of the lattice p0=1e+308,a=1,n=4 are equal in double precision"),
    (("well", "--L", "1e-308", "--levels", "8"),
     "the momentum step hbar*pi/L of the well with L=1e-308, hbar=1 is inf"),
    (("well", "--L", "inf", "--levels", "8"),
     "the momentum step hbar*pi/L of the well with L=inf, hbar=1 is 0"),
    (("well", "--L", "1", "--hbar", "inf", "--levels", "8"),
     "the momentum step hbar*pi/L of the well with L=1, hbar=inf is inf"),
    (("verify", "--p0", "1e17", "--a", "1", "--n", "8"),
     "the momenta of the lattice p0=1e+17,a=1,n=8 are unevenly spaced in double precision: "
     "their relative spacing error 1 exceeds 2^-26"),
    (("verify", "--p0", "1e14", "--a", "0.1", "--n", "64"),
     "the momenta of the lattice p0=100000000000000,a=0.1,n=64 are unevenly spaced in double "
     "precision: their relative spacing error 0.094 exceeds 2^-26"),
    (("check", "P^²"), "unexpected character '²' at offset 2"),
    (("check", "٣"), "unexpected character '٣' at offset 0"),
    (("check", "1" + "0" * 5000),
     "integer literal of 5001 digits exceeds the limit of 4300 digits at offset 0"),
    (("check", "P^" + "9" * 5000), "9 exceeds the limit 16 at offset 2"),
    (("check", "((" + "9" * 4300 + ")^16)^2"),
     "the normal form has a coefficient of more than 100000 digits, past the printing limit"),
    (("verify", "--n", "7"), "identity suite needs at least 8 lattice points, got 7"),
    (("verify", "--tol", "-1"), "tolerance must be a non-negative number, got --tol -1.0"),
    (("verify", "--n", "8", "--tol", "inf", "--format", "json"),
     "tolerance must be finite, got --tol inf"),
    (("well", "--L", "1", "--levels", "8", "--tol", "inf", "--format", "json"),
     "tolerance must be finite, got --tol inf"),
    (("eigvec", "--x", "0.5", "--n", "0"), "lattice needs at least one point, got 0"),
    (("eigvec", "--x", "0.5", "--n", "3000001"),
     "eigenvector of n=3000001 points exceeds the limit of 3000000"),
    (("spectrum", "--n", "0"), "lattice needs at least one point, got 0"),
    (("well", "--L", "1", "--levels", "7"),
     "identity suite needs at least 8 lattice points, got 7"),
    (("continuum", "--spacings", "0.1,x"), "bad spacing list '0.1,x'"),
    (("continuum", "--window=1:2:3"), "bad window '1:2:3', expected lo:hi"),
    (("continuum", "--window=a:b"), "bad window 'a:b', expected lo:hi"),
    (("continuum", "--window=38.6:45", "--spacings", "1,0.5,0.25"),
     "the test function's largest value on the lattice p0=38.6,a=1,n=7 is "
     "4.94065645841247e-324, below the smallest normal double"),
    (("continuum", "--window=38.6:45", "--spacings", "0.4,0.2,0.1"),
     "the test function's largest value on the lattice p0=38.6,a=0.4,n=17 is "
     "4.94065645841247e-324, below the smallest normal double"),
    # 2^-27, 2^-30, 2^-31, 2^-32: the Gaussian reads 1.0 at every point
    (("continuum", "--window=0:7.450580596923828e-09", "--spacings",
      "9.313225746154785e-10,4.656612873077393e-10,2.3283064365386963e-10"),
     "the residual at spacing 9.31322574615479e-10 is 0, which has no logarithm"),
    (("well", "--L", "1", "--levels", "0"), "lattice needs at least one point, got 0"),
    # the spacing rule refuses a collapsed lattice at the size cap before the fold,
    # and one whose entries would also overflow
    (("verify", "--p0", "1e17", "--a", "1", "--n", "1000000"),
     "the momenta of the lattice p0=1e+17,a=1,n=1000000 are unevenly spaced in double "
     "precision: their relative spacing error 15 exceeds 2^-26"),
    (("verify", "--p0", "1e300"),
     "the momenta of the lattice p0=1e+300,a=0.1,n=64 are unevenly spaced in double "
     "precision: their relative spacing error 1 exceeds 2^-26"),
    # an eigvec CSV's p column is checked before any eigenvector is computed: at
    # the size cap, and ahead of an eigenvalue outside the band
    (("eigvec", "--x", "0.5", "--n", "3000000", "--p0", "1e308"),
     "consecutive momenta of the lattice p0=1e+308,a=0.1,n=3000000 are equal in double "
     "precision"),
    (("eigvec", "--x", "20", "--a", "0.1", "--n", "4", "--p0", "1e308"),
     "consecutive momenta of the lattice p0=1e+308,a=0.1,n=4 are equal in double precision"),
    (("continuum", "--window=5"), "bad window '5', expected lo:hi"),
    (("continuum", "--window=:8"), "bad window ':8', expected lo:hi"),
    # the Gaussian's p^2 overflows at every momentum, and reads exp(-inf) = 0
    (("continuum", "--window=-1e200:1e200", "--spacings", "1e199,5e198,2.5e198"),
     "the test function vanishes on the lattice p0=-1e+200,a=1e+199,n=21"),
    # a value that starts with '-' reaches the library, whatever its form
    (("verify", "--p0", "-inf"), "base momentum must be finite"),
    (("verify", "--tol", "-1e-3"),
     "tolerance must be a non-negative number, got --tol -0.001"),
    (("continuum", "--spacings", "-0.1,0.05,0.025"), "spacings must be positive"),
    # `--opt=--` gives the option no value: "expected one argument" on Python
    # 3.10-3.12, while 3.13's argparse tries '--' as a number or a choice first
    (("verify", "--tol=--"), "momlat verify: error: argument --tol: "),
    (("verify", "--format=--"), "momlat verify: error: argument --format: "),
    (("eigvec", "--x=--"), "momlat eigvec: error: argument --x: "),
    (("continuum", "--window=--"),
     "momlat continuum: error: argument --window: expected one argument"),
    (("well", "--L", "1", "--levels=--"), "momlat well: error: argument --levels: "),
    # a `check` token that starts with '-' is the expression, also before a '--'
    (("check", "--x", "--"), "unknown identifier 'x'"),
    # a string option refuses `--opt=--` on every Python: no file named '--'
    (("verify", "--out=--"), "momlat verify: error: argument --out: expected one argument"),
    (("continuum", "--spacings=--"),
     "momlat continuum: error: argument --spacings: expected one argument"),
    # `adj` is a name only before '(': alone it is an unknown identifier
    (("check", "adj(X"), "expected ')', found end of input at offset 5"),
    (("check", "adj X"), "unknown identifier 'adj' at offset 0"),
    # adjoints charge the terms they write to the product work limit
    (("check", "adj(" * 190 + "H^16*H^8" + ")" * 190),
     "normal form needs more than the work limit of 2000000 term pairs in products and "
     "adjoints"),
    # every spacing fits its own cap, but the ladder is refused before a scan
    (("continuum", "--spacings", "6e-6,5.9e-6,5.8e-6"),
     "the spacings need 8137153 points in all, more than the limit of 6000000 for one ladder"),
]


# Valid calls that take a branch no other table reaches: a `check` expression
# that starts with '-', the one-point eigenvector (null formula fields),
# spectra that LAPACK's driver would scale, a continuum window whose
# Gaussian overflows p^2 and negative values that argparse alone would take
# for options.  Each exits 0 with no warning.
EDGE_CASES = [
    ("check", "-{Q,P}+{Q,P}"),
    ("eigvec", "--x", "0.5", "--a", "1", "--n", "1"),
    ("eigvec", "--x", "0.5", "--a", "1", "--n", "1", "--format", "json"),
    ("spectrum", "--a", "1e200", "--n", "64"),
    ("spectrum", "--a", "1e-200", "--n", "64"),
    # p^2 overflows on all but the point p = 0, where the Gaussian reads 1
    ("continuum", "--window=-1e300:1e300", "--spacings", "1e299,5e298,2.5e298"),
    # negative values in exponent form, and a window with no '=', are values
    ("eigvec", "--x", "-2.5e-1", "--a", "1", "--n", "3"),
    ("spectrum", "--p0", "-1E2", "--n", "3"),
    ("continuum", "--window", "-8:8"),
    ("verify", "--p0", "-1e-3", "--n", "64"),
    # the exact adjoint certifies that X is Hermitian, and that adj(i*a*P*A)
    # is the normal form `check "adj(i*a*P*A)"` prints
    ("check", "X - adj(X)"),
    ("check", "adj(i*a*P*A) - (-i*a*P+i*a^2)*Abar"),
]


# (argv, exit code, text): calls that argparse ends before any handler runs.
# Help exits 0 with the text on stdout; an error exits 2 with the usage and
# the text on stderr.
PARSER_CASES = [
    ((), 2, "momlat: error: the following arguments are required: command"),
    (("--help",), 0, "usage: momlat [-h] {verify,check,eigvec,spectrum,continuum,well} ..."),
    (("verify", "-h"), 0, "usage: momlat verify [-h]"),
    (("continuum", "-h"), 0, "momentum window lo:hi (default -8:8)"),
    (("bogus",), 2, "momlat: error: argument command: invalid choice: 'bogus'"),
    (("verify", "--bogus"), 2, "momlat: error: unrecognized arguments: --bogus"),
    (("eigvec",), 2, "momlat eigvec: error: the following arguments are required: --x"),
    (("spectrum", "--n", "abc"), 2,
     "momlat spectrum: error: argument --n: invalid int value: 'abc'"),
    # a `check` token that starts with '-' is the expression wherever it stands
    (("check", "--A", "extra"), 2, "momlat: error: unrecognized arguments: extra"),
    (("check", "extra", "--A"), 2, "momlat: error: unrecognized arguments: --A"),
    (("check", "-h=x"), 2, "argument -h/--help: ignored explicit argument 'x'"),
]


# The end-to-end calls of the ROADMAP's north star, at its sizes, for
# `scripts/byte_diff.py` to replay beyond the benchmark's n <= 640.  The
# one-shot `eigvec --n 10^6` (~1-1.6 s) is left out; the two `eigvec --n 10^5`
# calls print 25 full blocks of `formatting.format_rows`.
SCALE_CASES = [
    ("verify", "--n", "1024"),
    ("verify", "--n", "2048"),
    ("verify", "--n", "100000"),
    ("well", "--L", "1"),
    ("continuum", "--spacings", "0.01,0.001,0.0001"),
    ("spectrum", "--n", "2000"),
    ("check", "H^12"),
    ("eigvec", "--x", "0.5", "--a", "0.001", "--n", "100000"),
    ("eigvec", "--x", "0.5", "--a", "0.001", "--n", "100000", "--format", "json"),
]


# `eigvec` calls whose closed form crosses numpy's small-power cutoff
# (exponents from 100 on go through libm's cpow) and, at n = 16385, the
# 256 KiB size from which numpy elides the temporaries of its combining
# expression.  At x = 0 the second root -conj(alpha) is exactly 1 + 0j.
POWER_CUTOFF_CASES = [
    ("eigvec", "--x", "0", "--a", "1", "--n", "101"),
    ("eigvec", "--x", "-0.3", "--a", "1", "--n", "100", "--format", "json"),
    ("eigvec", "--x", "0.999999999999", "--a", "1", "--n", "16385"),
]


# Tokens of `parser_argv`: values (for an option, a `check` expression or a
# stray token), help tokens, and tokens put in front of the subcommand name.
ARGV_VALUES = ("-1e3", "-2.5e-1", "0.5", "8", "-8:8", "1,0.5,0.25", "json", "x", "A", "--A",
               "-A", "-x", "-{Q,P}+{Q,P}", "-h", "--", "-", "--x", "--bogus", "", "--x=8",
               "--x=--")
ARGV_HELP = ("-h", "--help", "--he", "-h=x", "--help=--")
ARGV_LEADERS = ("-h", "--he", "--", "bogus", "ver")


def parser_argv(rng, subcommands) -> list:
    """One seeded argv for the parser: a subcommand, maybe its required
    options, and up to four tokens, each a value, an option with a value
    (`--opt V` or `--opt=V`) or an option alone or cut to a prefix.  One
    argv in ten also gets a help token after the subcommand name, and one
    in ten a token in front of it.  `subcommands` maps each subcommand name
    to its parser, as `momlat.cli._SUBCOMMANDS` does."""
    command = rng.choice(sorted(subcommands))
    parser = subcommands[command]
    options = sorted(set(parser._option_string_actions) - {"-h", "--help"})
    argv = [command]
    if rng.random() < 0.5:
        for action in parser._actions:
            if action.required and action.option_strings:
                argv += [action.option_strings[0], "0.5"]
    for _ in range(rng.randint(0, 4)):
        value, form = rng.choice(ARGV_VALUES), rng.random()
        option = rng.choice(options) if options else None
        if option is None or form < 0.3:
            argv.append(value)
        elif form < 0.6:
            argv += [option, value]
        elif form < 0.9:
            argv.append(f"{option}={value}")
        else:
            argv.append(option[:rng.randint(3, len(option))])
    if rng.random() < 0.1:
        argv.insert(rng.randint(1, len(argv)), rng.choice(ARGV_HELP))
    if rng.random() < 0.1:
        argv.insert(0, rng.choice((*ARGV_LEADERS, command)))
    return argv


def run_cli(*argv):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    from momlat.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def subprocess_env():
    """Environment in which `python -m momlat` imports this same momlat and,
    as the in-process tests do, turns a numpy RuntimeWarning into an error."""
    import momlat
    src = str(Path(momlat.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src,
            "PYTHONWARNINGS": "error::RuntimeWarning"}
