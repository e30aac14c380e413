"""Independent checks of one CLI job's exit code and output.

Each oracle takes the job, the exit code and the captured stdout/stderr and
returns None when the output is right, or a one-line reason when it is not.
The checks use only the standard library and the mathematics of the model
(closed-form spectrum, continuum order, recurrence, normalization), never
momlat itself.
"""

from __future__ import annotations

import json
import math

SPECTRUM_TOL = 1e-12       # times 1/a, the scale of the eigenvalues
SLOPE_TARGET, SLOPE_TOL = 2.0, 0.1
EIGVEC_DEV_TOL = 1e-9
EIGVEC_NORM_TOL = 1e-9

# The identities a verify/well report lists, in each section.  A report that
# drops, adds or renames one fails, so a faster suite that checks less work
# does not pass.
SYMBOLIC_IDENTITIES = (
    "A_Abar_is_identity", "Abar_A_is_identity", "commutator_A_P", "commutator_Abar_P",
    "commutator_D_P", "commutator_Dbar_P", "commutator_X_P", "H_shift_form",
    "commutator_X_H_braced", "commutator_X_H_expanded", "commutator_P_H_braced",
    "commutator_P_H_expanded", "QP_brace_expansion", "D_Dbar_commute_lemma",
)
NUMERIC_IDENTITIES = SYMBOLIC_IDENTITIES[:12] + (
    "P_hermitian", "X_hermitian", "Abar_is_A_adjoint", "A_adjoint_inner_product",
)


def _suite(job, code, out, err):
    tol = job.expect["tol"]
    if code != 0:
        return f"exit code {code}, expected 0"
    if out.startswith("{"):
        doc = json.loads(out)
        symbolic = [(c["identity"], c["zero"]) for c in doc["symbolic"]]
        numeric = [(r["identity_name"], r["max_interior_residual"]) for r in doc["numeric"]]
        if doc["passed"] is not True:
            return "passed is not true"
        head = doc["lattice"]
    else:
        sections = {s.split("\n", 1)[0]: s.split("\n")[1:]
                    for s in out.strip("\n").split("\n\n")}
        symbolic = [(name, zero == "true") for name, zero, _ in
                    (row.split(",") for row in sections.get("identity,zero,term_count", []))]
        numeric = [(name, float(residual)) for name, _, residual in
                   (row.split(",") for row in sections.get("identity,margin,residual", []))]
        head = None
        if "p0,a,levels" in sections:
            p0, a, levels = sections["p0,a,levels"][0].split(",")
            head = {"p0": float(p0), "a": float(a), "levels": int(levels)}
    for section, rows, expected in (("symbolic", symbolic, SYMBOLIC_IDENTITIES),
                                    ("numeric", numeric, NUMERIC_IDENTITIES)):
        if sorted(name for name, _ in rows) != sorted(expected):
            return f"{section} identities {[name for name, _ in rows]} are not the expected {len(expected)}"
    if not all(zero for _, zero in symbolic):
        return "a symbolic identity is not exactly zero"
    worst = max(residual for _, residual in numeric)
    if not worst < tol:  # also rejects nan
        return f"residual {worst:g} not below tol {tol:g}"
    if job.kind == "well":
        step = job.expect["hbar"] * math.pi / job.expect["L"]
        if head is None or head["levels"] != job.expect["levels"] or \
                not math.isclose(head["p0"], step, rel_tol=1e-12) or \
                not math.isclose(head["a"], step, rel_tol=1e-12):
            return f"well lattice {head} is not p0 = a = {step!r}"
    return None


def _check(job, code, out, err):
    zero = job.expect["zero"]
    lines = out.splitlines()
    if code != (0 if zero else 1):
        return f"exit code {code} for a {'ZERO' if zero else 'NONZERO'} expression"
    if len(lines) != 2 or lines[1] != ("ZERO" if zero else "NONZERO"):
        return f"verdict {lines[-1:]} != {'ZERO' if zero else 'NONZERO'}"
    if zero and lines[0] != "0":
        return f"ZERO verdict with normal form {lines[0]!r}"
    return None


def _spectrum(job, code, out, err):
    n, a = job.expect["n"], job.expect["a"]
    if code != 0:
        return f"exit code {code}, expected 0"
    if out.startswith("{"):
        values = json.loads(out)["eigenvalues"]
    else:
        rows = out.splitlines()
        if rows[0] != "k,x":
            return f"bad header {rows[0]!r}"
        if [int(r.split(",")[0]) for r in rows[1:]] != list(range(1, n + 1)):
            return "row indices are not 1..n"
        values = [float(r.split(",")[1]) for r in rows[1:]]
    oracle = sorted(math.cos(k * math.pi / (n + 1)) / a for k in range(1, n + 1))
    if len(values) != n:
        return f"{len(values)} eigenvalues, expected {n}"
    worst = max(abs(v - w) for v, w in zip(values, oracle))
    if not worst <= SPECTRUM_TOL / a:
        return f"eigenvalues off the cos(k*pi/(n+1))/a oracle by {worst:g}"
    return None


def _continuum(job, code, out, err):
    spacings = job.expect["spacings"]
    if code != 0:
        return f"exit code {code}, expected 0"
    if out.startswith("{"):
        doc = json.loads(out)
        got = [row["a"] for row in doc["rows"]]
        slope = doc["slope"]
    else:
        rows = out.splitlines()
        if rows[0] != "a,r,log_a,log_r" or not rows[-1].startswith("slope,"):
            return "bad convergence table layout"
        got = [float(r.split(",")[0]) for r in rows[1:-1]]
        slope = float(rows[-1].split(",")[1])
    if got != list(spacings):
        return f"table spacings {got} != {list(spacings)}"
    if not abs(slope - SLOPE_TARGET) <= SLOPE_TOL:
        return f"slope {slope!r} outside {SLOPE_TARGET} +- {SLOPE_TOL}"
    return None


def _eigvec(job, code, out, err):
    x, a, n = job.expect["x"], job.expect["a"], job.expect["n"]
    if code != 0:
        return f"exit code {code}, expected 0"
    if out.startswith("{"):
        summary = json.loads(out)
        phi = [complex(re, im) for re, im in summary["values"]]
    else:
        summary = json.loads(err)
        rows = out.splitlines()
        if rows[0] != "j,p,re,im":
            return f"bad header {rows[0]!r}"
        phi = [complex(float(f[2]), float(f[3])) for f in (r.split(",") for r in rows[1:])]
    if summary.get("normalized") is not True:
        return "summary does not say normalized"
    dev = summary["max_dev_recurrence_vs_closed"]
    if not dev <= EIGVEC_DEV_TOL:
        return f"recurrence vs closed form deviation {dev!r}"
    if len(phi) != n:
        return f"{len(phi)} values, expected {n}"
    norm = a * math.fsum(abs(v) ** 2 for v in phi)
    if not abs(norm - 1.0) <= EIGVEC_NORM_TOL:
        return f"a*sum|phi|^2 = {norm!r}, expected 1"
    # phi_{j+1} - phi_{j-1} = 2iax phi_j with phi_{-1} = 0
    scale = max(abs(v) for v in phi)
    t = 2j * a * x
    worst = max((abs(phi[j + 1] - (phi[j - 1] if j else 0) - t * phi[j])
                 for j in range(n - 1)), default=0.0)
    if not worst <= 1e-9 * scale:
        return f"recurrence residual {worst:g}"
    return None


ORACLES = {
    "verify": _suite,
    "well": _suite,
    "check": _check,
    "spectrum": _spectrum,
    "continuum": _continuum,
    "eigvec": _eigvec,
}


def judge(job, code, out, err):
    """None if the job's result is right, else the reason it is not."""
    try:
        return ORACLES[job.kind](job, code, out, err)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
