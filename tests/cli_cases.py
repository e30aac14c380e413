"""Shared CLI invocation helper and the golden-file case table."""

import contextlib
import io
import os
from pathlib import Path

import momlat
from momlat.cli import main

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "verify_a01_n64.csv": ("verify", "--p0", "0", "--a", "0.1", "--n", "64"),
    "verify_a01_n64.json": ("verify", "--p0", "0", "--a", "0.1", "--n", "64",
                            "--format", "json"),
    "check_AP.txt": ("check", "A*P"),
    "check_XH2.txt": ("check", "[X,H^2]"),
    "check_H3.txt": ("check", "H^3"),
    "check_mixed.txt": ("check", "(X^2 + i*P*A/3)*(2-i)/(3-2*i)/a - {Q,P}/5"),
    "eigvec_x0_a1_n5.csv": ("eigvec", "--x", "0", "--a", "1", "--n", "5"),
    "eigvec_x05_a1_n8.json": ("eigvec", "--x", "0.5", "--a", "1", "--n", "8",
                              "--format", "json"),
    "eigvec_x0_a1_n5.json": ("eigvec", "--x", "0", "--a", "1", "--n", "5", "--format", "json"),
    "spectrum_n3_a1.csv": ("spectrum", "--n", "3", "--a", "1"),
    "spectrum_n9_a05.json": ("spectrum", "--n", "9", "--a", "0.5", "--format", "json"),
    "continuum_default.csv": ("continuum",),
    "well_L1_16.csv": ("well", "--L", "1", "--levels", "16"),
}


def run_cli(*argv):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def subprocess_env():
    """Environment in which `python -m momlat` imports this same momlat and,
    as the in-process tests do, turns a numpy RuntimeWarning into an error."""
    src = str(Path(momlat.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src,
            "PYTHONWARNINGS": "error::RuntimeWarning"}
