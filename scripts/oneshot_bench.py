#!/usr/bin/env python3
"""Wall time and max RSS of one-shot momlat CLI calls at the north-star sizes.

    python scripts/oneshot_bench.py [--rounds 10] [--src SRC] [--parent SRC]
                                    [--out BENCH_oneshot.json]

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

With `--parent SRC`, every call is made from both trees back to back, the
parent's first in odd rounds and this tree's first in even ones, so both
sides share each slow phase of the host.  The output then also holds the
parent tree's block (`parent`) and, per command and mode, the paired
difference (`paired`): the median and quartiles of this tree's wall time
minus the parent's in the same round, and the number of rounds in which each
side was faster.
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
# bytecode compiled on every call, or read from a cache (see above)
MODES = ("host", "cached")
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
    return dict(zip(MODES, (base, {**base, "PYTHONPYCACHEPREFIX": cache})))


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


def run_rounds(commands: dict, rounds: int, trees: dict) -> dict:
    """{(tree, label, mode): one (wall s, exit code, max RSS MB) per round}
    for the momlat of each tree in `trees` ({tree: src}).  Each call is made
    from every tree back to back, in an order reversed every round."""
    with tempfile.TemporaryDirectory(prefix="oneshot_pycache_") as cache:
        envs = {tree: environments(src, cache) for tree, src in trees.items()}
        for tree, src in trees.items():
            check_source(src, envs[tree]["host"])
            writer = {k: v for k, v in envs[tree]["cached"].items()
                      if k != "PYTHONDONTWRITEBYTECODE"}
            for args in commands.values():
                run_once(args, writer)  # fills the cache
        runs = {(tree, label, mode): [] for tree in trees for label in commands for mode in MODES}
        order = list(trees)
        for _ in range(rounds):
            for label, args in commands.items():
                for mode in MODES:
                    for tree in order:
                        runs[tree, label, mode].append(run_once(args, envs[tree][mode]))
            order.reverse()
    return runs


def summarize(runs: dict, tree: str, commands: dict) -> dict:
    """Per command and mode, one tree's wall time, max RSS and exit codes and,
    when the floor is among the commands, its wall time over the floor."""
    results = {label: {} for label in commands}
    for label in commands:
        for mode in MODES:
            label_runs = runs[tree, label, mode]
            result = results[label][mode] = {
                "wall_ms": summary(1e3 * wall for wall, _, _ in label_runs),
                "max_rss_mb": summary(rss for _, _, rss in label_runs),
                "exit_codes": sorted({code for _, code, _ in label_runs})}
            if FLOOR in commands and label != FLOOR:
                result["over_floor_ms"] = summary(
                    1e3 * (run[0] - floor[0])
                    for run, floor in zip(label_runs, runs[tree, FLOOR, mode]))
    return results


def measure(commands: dict, rounds: int, src: Path) -> dict:
    return summarize(run_rounds(commands, rounds, {"change": src}), "change", commands)


def measure_pair(commands: dict, rounds: int, src: Path, parent: Path) -> tuple:
    """(the results of `src`, those of `parent`, the paired differences),
    the two trees measured round by round.  Per command and mode, a paired
    difference is `src`'s wall time minus the parent's in the same round,
    with the number of rounds in which each tree was faster (ties count for
    neither)."""
    runs = run_rounds(commands, rounds, {"parent": parent, "change": src})
    paired = {label: {} for label in commands}
    for label in commands:
        for mode in MODES:
            diffs = [1e3 * (after[0] - before[0]) for after, before in
                     zip(runs["change", label, mode], runs["parent", label, mode])]
            paired[label][mode] = {"diff_ms": summary(diffs),
                                   "change_faster": sum(d < 0 for d in diffs),
                                   "parent_faster": sum(d > 0 for d in diffs)}
    return summarize(runs, "change", commands), summarize(runs, "parent", commands), paired


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=10, help="calls of each command and mode")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory that holds the momlat package (default: this checkout's)")
    ap.add_argument("--parent", type=Path, default=None,
                    help="directory that holds the parent's momlat package, measured round "
                         "by round with --src")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_oneshot.json")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    doc = {"env": {"python": platform.python_version(), "numpy": metadata.version("numpy"),
                   "machine": platform.machine(), "nproc": os.cpu_count(),
                   "rounds": args.rounds, "blas_threads": 1,
                   "src_pycache": (args.src / "momlat" / "__pycache__").is_dir()}}
    if args.parent is None:
        doc["commands"] = measure(COMMANDS, args.rounds, args.src)
    else:
        doc["commands"], doc["parent"], doc["paired"] = measure_pair(
            COMMANDS, args.rounds, args.src, args.parent)
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    # per mode: median wall time, its excess over the floor, median max RSS;
    # with a parent, the median paired difference and the rounds each side won
    for label, modes in doc["commands"].items():
        print(f"{label:50} " + "  ".join(
            f"{mode} {m['wall_ms']['median']:7.1f} ms "
            + (f"{m['over_floor_ms']['median']:+7.1f}" if "over_floor_ms" in m else " " * 7)
            + f" {m['max_rss_mb']['median']:6.1f} MB"
            + (" paired {diff_ms[median]:+7.1f} ms, {change_faster}:{parent_faster}".format(
                **doc["paired"][label][mode]) if "paired" in doc else "")
            for mode, m in modes.items()))


if __name__ == "__main__":
    main()
