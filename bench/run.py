"""Seeded in-process benchmark of the momlat CLI.

    python3 bench/run.py --workload verify_ladder --seed 1 --seconds 30 --trace 0

Each workload is a seeded list of CLI jobs (argv lists for `momlat.cli.main`),
run in one process by one closed-loop client with no think time, with BLAS
pinned to one thread.  Every job's stdout is captured and checked by an
oracle in `oracles.py`.  The run repeats set-up (a fresh import of momlat
plus one warm-up job of every kind) and a pass over the job list until
--seconds is used up, with at least three passes and 100 jobs.

Every time is host-normalized: a fixed probe that does not involve momlat
runs before and after each job and each set-up, and the time measured is
divided by how much slower than its reference time the probe ran around it.
A job's latency is the median of its normalized latencies over the passes;
setup_s is the median normalized set-up.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates plain and
traced rounds (set-up and pass) and prints the per-layer metrics: self times
of the spans around momlat's public calls, exact work counts, and the
tracing overhead.
Spans are written to .bench_out/ at the repository root.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"      # metric names and units
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = "1"      # a single-threaded baseline
MIN_PASSES = 3          # each job's latency is its median over at least this many
MIN_JOBS = 100
TRACE_MIN_PASSES = 2    # of each kind, plain and traced, in a --trace 1 run

# The host-speed probe: a Fraction/dict loop like the symbolic engine's, and
# a LAPACK symmetric eigensolve like the numeric jobs'.  REF_PROBE_S is the
# geometric mean of the two parts' times at the fast end of the shared
# 2-core x86_64 VM this benchmark was built on.
PROBE_LOOP = 500
PROBE_MATRIX = 160
REF_PROBE_S = 1.2e-3
# A job's slowness is the median of the probes within this many before it
# and after it: one probe caught in a hiccup of the host does not decide it.
PROBE_WINDOW = 3

# Per-layer metrics, per traced round.  Times are self times (span minus
# child spans), except algebra.symbolic_suite_s, which is the suite's
# inclusive time: its own body is a loop, and its work is all algebra.
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "formatting.render_s": ("formatting.dumps", "operators.reports_to_csv",
                            "operators.convergence_to_csv", "lattice.grid_to_csv",
                            "algebra.format_normal_form"),
    "operators.build_s": ("operators.build_operator",),
    "operators.product_s": ("operators.OperatorMatrix.__matmul__",),
    "operators.residual_s": ("operators.interior_residual",),
    "operators.suite_self_s": ("operators.verify_identity_suite",),
    "operators.continuum_s": ("operators.continuum_scan",),
    "algebra.parse_s": ("algebra.parse",),
    "algebra.normal_form_s": ("algebra.normal_form",),
    "algebra.mul_s": ("algebra.SymbolicOperator.__mul__",),
    "eigen.spectrum_s": ("eigen.truncated_spectrum",),
    "eigen.recurrence_s": ("eigen.eigenvector_recurrence",),
    "eigen.closed_form_s": ("eigen.eigenvector_closed_form",),
    "eigen.normalize_s": ("eigen.normalized",),
}
INCLUSIVE_TIME = {"algebra.symbolic_suite_s": "algebra.verify_symbolic_suite"}
CALL_COUNTS = {"operators.product_calls": "operators.OperatorMatrix.__matmul__",
               "algebra.mul_calls": "algebra.SymbolicOperator.__mul__"}
SPAN_COUNTS = {"algebra.nf_terms": "algebra.normal_form"}
SPAN_COUNT_FNS = {"algebra.normal_form": lambda nf: nf.term_count}
# Computed from sizes, not measured: 16 bytes per complex entry of each dense
# n x n OperatorMatrix constructed.
COUNTERS = ("lattice.points", "operators.matrices", "operators.dense_bytes")

# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------

def import_momlat():
    """Import momlat from this checkout's src/, afresh (builds ATOMS)."""
    for name in [m for m in sys.modules if m == "momlat" or m.startswith("momlat.")]:
        del sys.modules[name]
    importlib.import_module("momlat")
    cli = importlib.import_module("momlat.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"bench: imported momlat from {cli.__file__}, not from {SRC}")
    return cli


def run_job(cli, job):
    """(latency s, exit code, stdout, stderr, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(job.argv))
        except Exception as exc:  # a crashing job is a failed job; keep going
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue(), error


class Run:
    """Jobs attempted and failed over one benchmark run."""

    def __init__(self):
        self.cli = None
        self.probe = HostProbe()
        self.attempted = 0
        self.failures = []

    def job(self, job):
        elapsed, code, out, err, error = run_job(self.cli, job)
        self.attempted += 1
        reason = error or oracles.judge(job, code, out, err)
        if reason:
            self.failures.append((" ".join(job.argv), reason))
        return elapsed, len(out.encode())

    def one_pass(self, jobs):
        """Host-normalized job latencies, and stdout bytes, of one pass over
        the job list.  A probe runs before the first job and after every job;
        a latency is divided by the median slowness of the PROBE_WINDOW
        probes on either side of its job."""
        gc.collect()
        elapsed, slowness, nbytes = [], [self.probe()], 0
        for job in jobs:
            seconds, size = self.job(job)
            elapsed.append(seconds)
            slowness.append(self.probe())
            nbytes += size
        window = PROBE_WINDOW
        latencies = [seconds / statistics.median(slowness[max(0, i + 1 - window): i + 1 + window])
                     for i, seconds in enumerate(elapsed)]
        return latencies, nbytes


def set_up(run, tracer=None):
    """Host-normalized seconds to import momlat afresh and run one checked
    warm-up job of every kind; with a tracer, the warm-up is traced."""
    gc.collect()
    before = run.probe()
    start = time.perf_counter()
    run.cli = import_momlat()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        install_tracer(tracer)
    elapsed += sum(run.job(job)[0] for job in workloads.PROBES)
    return 2 * elapsed / (before + run.probe())


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def install_tracer(tracer):
    modules = {name: sys.modules["momlat." + name]
               for name in ("cli", "formatting", "lattice", "operators", "algebra", "eigen")}
    functions, methods = {}, {}
    for name in {n for names in SELF_TIME.values() for n in names} | set(INCLUSIVE_TIME.values()):
        parts = name.split(".")
        if len(parts) == 2:
            functions[(modules[parts[0]], parts[1])] = (name, SPAN_COUNT_FNS.get(name))
        else:
            methods[(getattr(modules[parts[0]], parts[1]), parts[2])] = name
    counters = {
        (modules["lattice"].MomentumLattice, "__post_init__"):
            lambda lat: {"lattice.points": lat.n_points},
        (modules["operators"].OperatorMatrix, "__post_init__"):
            lambda m: {"operators.matrices": 1,
                       "operators.dense_bytes": 16 * m.lattice.n_points ** 2},
    }
    tracer.install("momlat", functions, methods, counters)


def layer_metrics(tracer, slowness):
    """Per-layer values of one traced round; times are divided by the host
    slowness, as the end-to-end times are."""
    table = spans.self_times(tracer.spans)
    values = {metric: sum(table.get(n, (0.0, 0, 0))[0] for n in names) / slowness
              for metric, names in SELF_TIME.items()}
    for metric, name in INCLUSIVE_TIME.items():
        values[metric] = spans.inclusive_time(tracer.spans, name) / slowness
    for metric, name in CALL_COUNTS.items():
        values[metric] = table.get(name, (0.0, 0, 0))[1]
    for metric, name in SPAN_COUNTS.items():
        values[metric] = table.get(name, (0.0, 0, 0))[2]
    for name in COUNTERS:
        values[name] = tracer.counters.get(name, 0)
    return values


# ---------------------------------------------------------------------------
# measuring and reporting
# ---------------------------------------------------------------------------

def metric_units(trace):
    """{name: unit} of the metrics a run prints, as BENCHMARK.json lists them."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class HostProbe:
    """How much slower than at reference speed the host runs right now.

    On a shared machine the same work runs up to ~2x slower, in phases that
    last from seconds to many minutes.  The phases slow the benchmark and
    this probe nearly alike (in CPU time too: they are not time stolen from
    the process), so a time divided by the probe's slowness around it stays
    far steadier than the raw time.  The probe does not involve momlat,
    so a change to momlat moves only the time being divided.
    """

    def __init__(self):
        import numpy

        matrix = numpy.random.default_rng(0).standard_normal((PROBE_MATRIX, PROBE_MATRIX))
        self.matrix = matrix + matrix.T
        self.eigvalsh = numpy.linalg.eigvalsh
        self.samples = []

    def __call__(self):
        # Run twice and time the second: the first refills the caches that the
        # job before evicted, so how much memory a job uses does not show up
        # as host speed.  Nor does a collection of the program's garbage.
        gc.disable()
        try:
            for _ in range(2):
                start = time.perf_counter()
                table = {}
                for i in range(PROBE_LOOP):
                    table[i % 101] = table.get(i % 101, 0) + Fraction(i, 7)
                middle = time.perf_counter()
                self.eigvalsh(self.matrix)
                end = time.perf_counter()
        finally:
            gc.enable()
        slowness = math.sqrt((middle - start) * (end - middle)) / REF_PROBE_S
        self.samples.append(slowness)
        return slowness


def environment(args, jobs):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_per_pass": len(jobs),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": blas, "blas_threads": int(BLAS_THREADS),
    }


def measure(run, jobs, seconds, trace):
    """Set up and run a pass, until `seconds` is used up; with trace, every other
    round (warm-up and pass) is traced.  Setting up before every pass spreads
    the set-up samples over the run, so one slow phase does not decide setup_s.

    Returns (set-up times, plain, traced, spans of each traced pass); a pass
    is (job latencies in job-list order, stdout bytes, per-layer values or
    None).
    """
    tracer = spans.Tracer() if trace else None
    setups, plain, traced, traces = [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if trace and len(plain) > len(traced):
            tracer.reset()
            first_probe = len(run.probe.samples)
            try:
                setups.append(set_up(run, tracer))
                latencies, nbytes = run.one_pass(jobs)
            finally:
                tracer.uninstall()
            slowness = statistics.median(run.probe.samples[first_probe:])
            traced.append((latencies, nbytes, layer_metrics(tracer, slowness)))
            traces.append(tracer.spans)
        else:
            setups.append(set_up(run))
            latencies, nbytes = run.one_pass(jobs)
            plain.append((latencies, nbytes, None))
        now = time.perf_counter()
        if trace:
            enough = min(len(plain), len(traced)) >= TRACE_MIN_PASSES
        else:
            enough = len(plain) >= MIN_PASSES and len(plain) * len(jobs) >= MIN_JOBS
        if enough and (now - start) + (now - round_start) > seconds:
            return setups, plain, traced, traces


def job_latencies(passes):
    """Each job's median host-normalized latency over the passes."""
    return [statistics.median(runs) for runs in zip(*(p[0] for p in passes))]


def summarize(setups, plain, traced, run):
    latencies = job_latencies(plain)
    if not traced:
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        return {
            "wall_s": sum(latencies),
            "job_p50_ms": 1e3 * deciles[4],
            "job_p90_ms": 1e3 * deciles[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - len(run.failures) / run.attempted,
            "setup_s": statistics.median(setups),
        }
    fastest = min(traced, key=lambda t: sum(t[0]))
    values = dict(fastest[2])
    values["formatting.bytes_out"] = fastest[1]
    values["trace.overhead_s"] = sum(job_latencies(traced)) - sum(latencies)
    return values


def deterministic(plain, traced):
    """Every pass printed the same bytes and traced passes counted the same work."""
    same_bytes = len({p[1] for p in plain + traced}) <= 1
    counts = [{k: v for k, v in t[2].items() if not k.endswith("_s")} for t in traced]
    return same_bytes and all(c == counts[0] for c in counts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy is imported: nothing imported so far imports it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "momlat" / "__init__.py").is_file():
        raise SystemExit(f"bench: no momlat sources under {SRC}")
    sys.path.insert(0, str(SRC))

    units = metric_units(args.trace)
    jobs = workloads.build(args.workload, args.seed)
    run = Run()
    setups, plain, traced, traces = measure(run, jobs, args.seconds, args.trace)
    values = summarize(setups, plain, traced, run)
    if set(values) != set(units):
        raise SystemExit(f"bench: measured {sorted(values)}, BENCHMARK.json lists {sorted(units)}")
    correct = not run.failures and deterministic(plain, traced)

    env = environment(args, jobs)
    env["pass_s"] = {"plain": [sum(p[0]) for p in plain],
                     "traced": [sum(t[0]) for t in traced]}
    env["setup_samples_s"] = setups
    env["host_slowness_quartiles"] = statistics.quantiles(run.probe.samples, n=4)
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in values.items():
        print(f"{args.workload:15s} {name:26s} {value:>16.6f} {units[name]}")
    if not args.trace:
        print(f"{args.workload:15s} {'failed_frac':26s} "
              f"{len(run.failures) / run.attempted:>16.6f} ratio")
    for command, reason in run.failures[:20]:
        print(f"FAILED {command!r}: {reason}", file=sys.stderr)
    if traces:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "fields": ["name", "start", "end", "parent", "count"],
                       "passes": traces}, fh)
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
