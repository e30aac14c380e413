"""Seeded job lists for the benchmark workloads.

A job is one argv for `momlat.cli.main` plus what its oracle needs to know.
Every workload is a fixed list of job groups: the sizes (n, powers, ladders)
and output formats are fixed, so every seed costs about the same, and the
seed picks the lattice parameters, expression atoms and coefficients,
rewrite routes, ZERO/NONZERO split and the order of the jobs.  Nothing here
imports momlat.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple
    expect: dict


def _num(x: float) -> str:
    return format(x, ".6g")


# One default-size job of every kind: the warm-up of every set-up.  A traced
# run traces them too, so every layer boundary is entered on every workload
# and no per-layer time reads 0 only because a layer was never called.
PROBES = (
    Job("verify", ("verify", "--n", "64"), {"tol": 1e-10}),
    Job("well", ("well", "--L", "1"), {"tol": 1e-10, "L": 1.0, "hbar": 1.0, "levels": 16}),
    Job("check", ("check", "[A,P] - a*A"), {"zero": True}),
    Job("spectrum", ("spectrum", "--n", "16", "--a", "1"), {"n": 16, "a": 1.0}),
    Job("eigvec", ("eigvec", "--x", "0.5", "--a", "1", "--n", "8"),
        {"x": 0.5, "a": 1.0, "n": 8}),
    Job("continuum", ("continuum", "--spacings", "0.4,0.2,0.1"), {"spacings": (0.4, 0.2, 0.1)}),
)


# ---------------------------------------------------------------------------
# numeric jobs
# ---------------------------------------------------------------------------

def _formats(count: int, every: int) -> list:
    """Every `every`-th job prints JSON.  Fixed per slot: JSON costs more."""
    return ["json" if i % every == every - 1 else "csv" for i in range(count)]


def verify_job(rng: random.Random, n: int, fmt: str = "csv") -> Job:
    # Centred lattices with a in [0.05, 0.25] and |centre| <= 15: residuals
    # stay below ~1e-11 up to n = 512, a decade under the 1e-10 tolerance.
    a = float(_num(rng.uniform(0.05, 0.25)))
    p0 = float(_num(rng.uniform(-15.0, 15.0) - (n - 1) * a / 2))
    argv = ("verify", "--p0", _num(p0), "--a", _num(a), "--n", str(n),
            "--tol", "1e-10", "--format", fmt)
    return Job("verify", argv, {"tol": 1e-10})


def well_job(rng: random.Random, levels: int, fmt: str = "csv") -> Job:
    L = float(_num(rng.uniform(0.5, 4.0)))
    argv = ("well", "--L", _num(L), "--levels", str(levels), "--tol", "1e-10", "--format", fmt)
    return Job("well", argv, {"tol": 1e-10, "L": L, "hbar": 1.0, "levels": levels})


def spectrum_job(rng: random.Random, n: int, fmt: str = "csv") -> Job:
    a = float(_num(rng.uniform(0.05, 4.0)))
    p0 = _num(rng.uniform(-10.0, 10.0))
    argv = ("spectrum", "--p0", p0, "--a", _num(a), "--n", str(n), "--format", fmt)
    return Job("spectrum", argv, {"n": n, "a": a})


def eigvec_job(rng: random.Random, n: int, a_range: tuple, fmt: str = "csv") -> Job:
    a = float(_num(rng.uniform(*a_range)))
    x = float(_num(rng.choice((-1, 1)) * rng.uniform(0.05, 0.95) / a))
    phase = _num(rng.uniform(0.0, 2 * math.pi))
    argv = ("eigvec", "--x", _num(x), "--a", _num(a), "--n", str(n),
            "--phi0-phase", phase, "--format", fmt)
    return Job("eigvec", argv, {"x": x, "a": a, "n": n})


def continuum_job(rng: random.Random, spacings: tuple, fmt: str = "csv") -> Job:
    # The window keeps the default width 16 (so the cost is fixed) and moves
    # its centre; the Gaussian test function is negligible at either edge.
    shift = rng.uniform(-2.0, 2.0)
    window = f"{_num(-8.0 + shift)}:{_num(8.0 + shift)}"
    argv = ("continuum", "--spacings", ",".join(_num(s) for s in spacings),
            f"--window={window}", "--format", fmt)
    return Job("continuum", argv, {"spacings": tuple(spacings)})


# ---------------------------------------------------------------------------
# symbolic jobs
# ---------------------------------------------------------------------------

# Exact rewrites of an atom into other atoms: the definitions of H, X, Q, D,
# Dbar and the shift presentation of A and Abar.
ATOM_REWRITES = {
    "H": ("(X^2+P^2)", "(X*X+P*P)", "(P^2-(1/(4*a^2))*(A-Abar)^2)"),
    "X": ("((D+Dbar)/(2*i))", "((A-Abar)/(2*i*a))", "(-(i/2)*(D+Dbar))"),
    "Q": ("(Dbar-D)", "((2*I-A-Abar)/a)"),
    "D": ("((A-I)/a)",),
    "Dbar": ("((I-Abar)/a)",),
    "A": ("(a*D+I)",),
    "Abar": ("(I-a*Dbar)",),
    "P": ("P",),
}

# Closed forms of commutators, from the identity suite.
BRACKET_REWRITES = {
    ("A", "P"): "(a*A)",
    ("Abar", "P"): "(-a*Abar)",
    ("D", "P"): "A",
    ("Dbar", "P"): "Abar",
    ("X", "P"): "(-i+(i*a/2)*Q)",
    ("X", "H"): "(-2*i*P+(i*a/2)*{Q,P})",
    ("P", "H"): "(2*i*X-(i*a/2)*{Q,X})",
}


def _coeff(rng: random.Random) -> str:
    c = rng.choice((1, 2, 3, 5, 7)) * rng.choice((1, -1))
    return rng.choice((f"({c})", f"({c}*i)", f"({c}*a)", f"({c}/a)"))


def _power(atom: str, k: int) -> str:
    return atom if k == 1 else f"{atom}^{k}"


def _rewritten_power(rng: random.Random, atom: str, k: int) -> str:
    """U^k as R(U)^j * U^(k-j), j = ceil(k/2), R a rewrite of U.

    Splitting the power multiplies in another order than U^k does, so a
    broken product rule shows as a NONZERO verdict rather than cancelling.
    """
    j = (k + 1) // 2
    head = _power(rng.choice(ATOM_REWRITES[atom]), j)
    return head if j == k else f"{head}*{_power(atom, k - j)}"


def _bracket(rng: random.Random, pair: tuple) -> tuple:
    """([U,V], an exact rewrite of it): the closed form or the definition."""
    u, v = pair
    text = f"[{u},{v}]"
    if rng.random() < 0.5:
        return text, BRACKET_REWRITES[pair]
    return text, f"({rng.choice(ATOM_REWRITES[u])}*{v}-{v}*{rng.choice(ATOM_REWRITES[u])})"


def _nonzero_tail(rng: random.Random) -> str:
    """A term whose normal form is nonzero: c * P^k * A^m with c != 0."""
    k = rng.randint(0, 3)
    m = rng.randint(-2, 2)
    parts = [str(rng.choice((1, 2, 3)) * rng.choice((1, -1)))]
    if k:
        parts.append(_power("P", k))
    if m:
        parts.append(_power("A" if m > 0 else "Abar", abs(m)))
    return "*".join(parts)


def check_job(rng: random.Random, shape: str, atoms: tuple, k: int,
              partners: tuple = (), zero: bool | None = None) -> Job:
    """E - (E') where E' is E with exact rewrites; NONZERO adds a nonzero term.

    shape "power":    c*U^k
    shape "bracket":  c*[L,R]*U^k          ([L,R] from `partners`)
    shape "anti":     c*{U^k, V}           (V from `partners`)

    U is drawn from `atoms`; the choices in `atoms` and `partners` are mirror
    images (A/Abar, D/Dbar) of equal cost.
    """
    c = _coeff(rng)
    atom = rng.choice(atoms)
    if shape == "power":
        lhs = f"{c}*{_power(atom, k)}"
        rhs = f"{c}*{_rewritten_power(rng, atom, k)}"
    elif shape == "bracket":
        text, rewrite = _bracket(rng, rng.choice(partners))
        lhs = f"{c}*{text}*{_power(atom, k)}"
        rhs = f"{c}*{rewrite}*{_rewritten_power(rng, atom, k)}"
    elif shape == "anti":
        other = rng.choice(partners)
        lhs = f"{c}*{{{_power(atom, k)},{other}}}"
        rhs = (f"{c}*({_rewritten_power(rng, atom, k)}*{other}"
               f"+{other}*{_power(atom, k)})")
    else:
        raise ValueError(f"unknown shape {shape!r}")
    if zero is None:
        zero = rng.random() < 0.5
    expr = f"{lhs}-({rhs})"
    if not zero:
        expr += f"+{_nonzero_tail(rng)}"
    return Job("check", ("check", expr), {"zero": zero})


H, X, Q, P = ("H",), ("X",), ("Q",), ("P",)
A_PAIR = ("A", "Abar")
SHIFT_P = (("A", "P"), ("Abar", "P"))
DIFF_P = (("D", "P"), ("Dbar", "P"))
X_P, X_H, P_H = (("X", "P"),), (("X", "H"),), (("P", "H"),)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Each workload lists groups of jobs of one size.  The seed varies the inputs
# within a group, not their cost.  The mixes are synthetic: no record of real
# use sets them.  The groups are sized so that the median job and the
# 90th-percentile job both fall well inside a group (marked p50 and p90): a
# quantile then reads the typical latency of many like jobs, not of one.

def verify_ladder(rng: random.Random) -> list:
    jobs = [verify_job(rng, 64, f) for f in _formats(20, 4)]
    jobs += [well_job(rng, 16, f) for f in _formats(10, 4)]
    jobs += [verify_job(rng, 96, f) for f in _formats(40, 4)]      # p50
    jobs += [verify_job(rng, 128, f) for f in _formats(15, 4)]
    jobs += [verify_job(rng, 224, f) for f in _formats(15, 4)]     # p90: the O(n^3) tail
    return jobs


def symbolic_check(rng: random.Random) -> list:
    groups = [
        (8, ("bracket", P, 3, DIFF_P)), (8, ("power", A_PAIR, 5, ())),
        (7, ("bracket", X, 3, X_P)), (7, ("bracket", H, 2, X_H)),
        (40, ("power", X, 10, ())),                                 # p50
        (15, ("bracket", H, 3, P_H)),
        (15, ("power", H, 6, ())),                                  # p90
    ]
    slots = [slot for count, slot in groups for _ in range(count)]
    zeros = [True] * (len(slots) // 2) + [False] * (len(slots) - len(slots) // 2)
    rng.shuffle(zeros)
    return [check_job(rng, shape, atoms, k, partners, zero)
            for (shape, atoms, k, partners), zero in zip(slots, zeros)]


def spectrum_scan(rng: random.Random) -> list:
    jobs = [spectrum_job(rng, 128, f) for f in _formats(23, 4)]
    jobs += [eigvec_job(rng, 10_000, (0.005, 0.05), f) for f in _formats(45, 10)]  # p50
    jobs += [continuum_job(rng, (0.4, 0.2, 0.1, 0.05), f) for f in _formats(5, 2)]
    jobs += [spectrum_job(rng, 256, f) for f in _formats(7, 4)]
    jobs += [spectrum_job(rng, 640, f) for f in _formats(20, 4)]   # p90, mid-group
    return jobs


def cli_small(rng: random.Random) -> list:
    jobs = [verify_job(rng, 64, f) for f in _formats(30, 4)]
    jobs += [well_job(rng, 16, f) for f in _formats(20, 4)]
    shapes = [("power", X, 2), ("power", Q, 2), ("power", H, 1),
              ("bracket", P, 1, SHIFT_P), ("bracket", X, 1, DIFF_P), ("anti", X, 1, P)]
    jobs += [check_job(rng, *shapes[i % len(shapes)]) for i in range(60)]
    jobs += [spectrum_job(rng, 16, f) for f in _formats(60, 4)]
    jobs += [eigvec_job(rng, 8, (0.1, 2.0), f) for f in _formats(120, 4)]   # p50
    jobs += [continuum_job(rng, (0.4, 0.2, 0.1), f) for f in _formats(10, 3)]
    return jobs


WORKLOADS = {
    "verify_ladder": verify_ladder,
    "symbolic_check": symbolic_check,
    "spectrum_scan": spectrum_scan,
    "cli_small": cli_small,
}


def build(workload: str, seed: int) -> list:
    """The shuffled job list of one pass."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def dumps_jobs(jobs: list) -> str:
    """Canonical text of a job list (used to check seed determinism)."""
    return json.dumps([asdict(j) for j in jobs], sort_keys=True)
