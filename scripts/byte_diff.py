#!/usr/bin/env python3
"""Byte differential of the momlat CLI between two source trees.

    python scripts/byte_diff.py PARENT_SRC CHANGE_SRC [--seeds 1-8]

PARENT_SRC and CHANGE_SRC are directories that hold a `momlat` package (the
`src/` of two checkouts).  The script imports each tree's momlat in turn and
replays, in process, the same calls on both: every job of every workload in
`bench/workloads.py` (its warm-up probes and each seed's job list), then the
argv of every golden file, every usage-error case, every valid edge call
(`EDGE_CASES`), every case that argparse itself ends (help and usage text)
and every north-star-sized call
(`SCALE_CASES`: verify up to n = 10^5, spectrum n = 2000, the fine
continuum ladder, check H^12, eigvec n = 10^5) and every eigvec call across
the closed form's power cutoff (`POWER_CUTOFF_CASES`) in `tests/cli_cases.py`.  It
compares stdout, stderr and exit code call by call, names each call that
differs (an argv token longer than 60 characters shows as its head, its tail
and its length), and ends with a verdict line; it exits 1 when any call
differs.  It only reads `bench/` and `tests/`.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# bench/ and tests/ are not packages; neither module imports momlat
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
import cli_cases  # noqa: E402
import workloads  # noqa: E402


def case_argvs() -> list:
    """The argv of every golden file, usage-error, edge, parser, scale and
    power-cutoff case in tests/cli_cases.py."""
    return [*cli_cases.GOLDEN_CASES.values(), *(argv for argv, _ in cli_cases.USAGE_ERROR_CASES),
            *cli_cases.EDGE_CASES, *(argv for argv, _, _ in cli_cases.PARSER_CASES),
            *cli_cases.SCALE_CASES, *cli_cases.POWER_CUTOFF_CASES]


def calls(seeds) -> list:
    argvs = [job.argv for job in workloads.PROBES]
    for name in workloads.WORKLOADS:
        for seed in seeds:
            argvs += [job.argv for job in workloads.build(name, seed)]
    return argvs + case_argvs()


def import_cli(src: Path):
    """momlat.cli imported afresh from `src`."""
    for name in [m for m in sys.modules if m == "momlat" or m.startswith("momlat.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("momlat.cli")
    finally:
        sys.path.remove(str(src))
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"byte_diff: imported momlat from {cli.__file__}, not from {src}")
    return cli


def replay(cli, argv) -> tuple:
    """(exit code or raised exception, stdout digest, stderr digest) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # Every call prints its warnings, as a call in a fresh process would.
        warnings.simplefilter("always")
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a traceback is an outcome to compare too
            code = f"raised {type(exc).__name__}: {exc}"
    return (code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(err.getvalue().encode()).hexdigest())


def shown(argv) -> str:
    """The argv as one line, each token of more than 60 characters cut to its
    first and last 20 and its length."""
    return " ".join(token if len(token) <= 60 else
                    f"{token[:20]}...{token[-20:]}[{len(token)} chars]" for token in argv)


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="source tree holding the parent's momlat")
    ap.add_argument("change", type=Path, help="source tree holding the changed momlat")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-8"),
                    help="workload seeds, lo-hi or one seed (default 1-8)")
    args = ap.parse_args()

    argvs = calls(args.seeds)
    results = []
    for src in (args.parent, args.change):
        cli = import_cli(src.resolve())
        results.append([replay(cli, argv) for argv in argvs])
    differ = 0
    for argv, before, after in zip(argvs, *results):
        if before != after:
            differ += 1
            parts = [part for part, x, y in zip(("exit code", "stdout", "stderr"), before, after)
                     if x != y]
            print(f"differs in {', '.join(parts)}: momlat {shown(argv)}")
    print(f"{differ} of {len(argvs)} calls differ in stdout, stderr or exit code")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
