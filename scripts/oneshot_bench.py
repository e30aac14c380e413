#!/usr/bin/env python3
"""Wall time and max RSS of one-shot momlat CLI calls at the north-star sizes.

    python scripts/oneshot_bench.py [--rounds 10] [--src SRC] [--out BENCH_oneshot.json]

Each command runs as its own `python -m momlat ...` process, as a user calls
it, so its time includes interpreter start-up and every import; `python -c
"import numpy"` is the floor.  Each command is measured in two modes:

- `host`: with PYTHONDONTWRITEBYTECODE=1, as the hosts this project is
  measured on set it, so momlat's sources are compiled on every call (a
  `__pycache__` already in SRC would be read: `env.src_pycache` says whether
  there is one);
- `cached`: with a PYTHONPYCACHEPREFIX cache in a temporary directory, which
  one untimed call of each command fills first.

The difference between the two modes is the compile share.  The rounds are
interleaved: each round runs every command in both modes, so a slow phase of
the host spreads over all of them.  Each child's wall time, exit code and max
RSS come from `os.wait4`, so the script needs a POSIX host.  BLAS runs one
thread.  The output holds, per command and mode, the median and quartiles of
wall time (ms) and max RSS (MB) and the exit codes seen, plus an `env` block.
When the floor is among the commands, every other command and mode also gets
`over_floor_ms`: the median and quartiles of its wall time minus the floor's
wall time of the same round and mode, which cancels most of a slow phase of
the host.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FLOOR = "import numpy"
# label -> interpreter arguments
COMMANDS = {
    FLOOR: ("-c", "import numpy"),
    **{"momlat " + " ".join(argv): ("-m", "momlat", *argv) for argv in (
        ("verify", "--n", "64"),
        ("verify", "--n", "1024"),
        ("verify", "--n", "2048"),
        ("well", "--L", "1"),
        ("continuum",),
        ("continuum", "--spacings", "0.01,0.001,0.0001"),
        ("spectrum", "--n", "2000"),
        ("check", "H^12"),
        ("check", "H^16*H^8"),  # the exact engine's largest accepted product
        # refused at the eigvec size cap: momenta collapse at p0 = 1e308 (exit 2)
        ("eigvec", "--x", "0.5", "--n", "3000000", "--p0", "1e308"),
    )},
}
# stdout and stderr of every child go to the null device
QUIET = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]


def run_once(args, env) -> tuple:
    """(wall s, exit code, max RSS MB) of one interpreter run."""
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=QUIET)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024  # KiB on Linux


def environments(src: Path, cache: str) -> dict:
    """{mode: child environment}: momlat from `src`, one BLAS thread."""
    base = {key: value for key, value in os.environ.items() if key != "PYTHONPYCACHEPREFIX"}
    path = base.get("PYTHONPATH")
    base.update(PYTHONPATH=str(src) + (os.pathsep + path if path else ""),
                PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    return {"host": base, "cached": {**base, "PYTHONPYCACHEPREFIX": cache}}


def check_source(src: Path, env: dict):
    """Stop unless the children import momlat from `src`."""
    proc = subprocess.run([sys.executable, "-c", "import momlat; print(momlat.__file__)"],
                          env=env, capture_output=True, text=True, check=True)
    if src.resolve() not in Path(proc.stdout.strip()).resolve().parents:
        raise SystemExit(f"oneshot_bench: children import momlat from {proc.stdout.strip()}, "
                         f"not from {src}")


def summary(values) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3
    return {"median": round(statistics.median(values), 1), "q1": round(q1, 1),
            "q3": round(q3, 1)}


def measure(commands: dict, rounds: int, src: Path) -> dict:
    with tempfile.TemporaryDirectory(prefix="oneshot_pycache_") as cache:
        envs = environments(src, cache)
        check_source(src, envs["host"])
        writer = {k: v for k, v in envs["cached"].items() if k != "PYTHONDONTWRITEBYTECODE"}
        for args in commands.values():
            run_once(args, writer)  # fills the cache
        runs = {(label, mode): [] for label in commands for mode in envs}
        for _ in range(rounds):
            for label, args in commands.items():
                for mode, env in envs.items():
                    runs[label, mode].append(run_once(args, env))
    results = {label: {mode: {"wall_ms": summary(1e3 * wall for wall, _, _ in runs[label, mode]),
                              "max_rss_mb": summary(rss for _, _, rss in runs[label, mode]),
                              "exit_codes": sorted({code for _, code, _ in runs[label, mode]})}
                       for mode in envs}
               for label in commands}
    if FLOOR in commands:
        for (label, mode), label_runs in runs.items():
            if label != FLOOR:
                results[label][mode]["over_floor_ms"] = summary(
                    1e3 * (run[0] - floor[0]) for run, floor in zip(label_runs, runs[FLOOR, mode]))
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=10, help="calls of each command and mode")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory that holds the momlat package (default: this checkout's)")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_oneshot.json")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    results = measure(COMMANDS, args.rounds, args.src)
    doc = {
        "env": {"python": platform.python_version(), "numpy": metadata.version("numpy"),
                "machine": platform.machine(), "nproc": os.cpu_count(), "rounds": args.rounds,
                "blas_threads": 1,
                "src_pycache": (args.src / "momlat" / "__pycache__").is_dir()},
        "commands": results,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    # per mode: median wall time, its excess over the floor, median max RSS
    for label, modes in results.items():
        print(f"{label:50} " + "  ".join(
            f"{mode} {m['wall_ms']['median']:7.1f} ms "
            + (f"{m['over_floor_ms']['median']:+7.1f}" if "over_floor_ms" in m else " " * 7)
            + f" {m['max_rss_mb']['median']:6.1f} MB"
            for mode, m in modes.items()))


if __name__ == "__main__":
    main()
