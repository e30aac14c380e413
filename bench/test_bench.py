"""Tests of the benchmark itself: job generation, oracles, span arithmetic."""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


def cli(job):
    from momlat.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(job.argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_job_list(workload):
    first = workloads.dumps_jobs(workloads.build(workload, 7)).encode()
    assert first == workloads.dumps_jobs(workloads.build(workload, 7)).encode()
    assert first != workloads.dumps_jobs(workloads.build(workload, 8)).encode()


def test_seeded_jobs_pass_their_oracles():
    rng = workloads.random.Random(3)
    jobs = [workloads.verify_job(rng, 24, "json"), workloads.well_job(rng, 16),
            workloads.spectrum_job(rng, 40, "json"), workloads.eigvec_job(rng, 200, (0.01, 0.1)),
            workloads.continuum_job(rng, (0.4, 0.2, 0.1), "json")]
    jobs += [workloads.check_job(rng, shape, atoms, 2, partners, zero)
             for shape, atoms, partners in (("power", workloads.H, ()),
                                            ("bracket", workloads.X, workloads.X_H),
                                            ("anti", workloads.Q, workloads.P))
             for zero in (True, False)]
    for job in list(workloads.PROBES) + jobs:
        assert oracles.judge(job, *cli(job)) is None, job.argv


def corrupt_line(text, index, replace):
    lines = text.split("\n")
    lines[index] = replace(lines[index])
    return "\n".join(lines)


def test_suite_oracle_flags_residual_above_tol():
    job = Job("verify", ("verify", "--n", "16", "--tol", "1e-10"), {"tol": 1e-10})
    code, out, err = cli(job)
    assert oracles.judge(job, code, out, err) is None
    row = out.split("\n").index("identity,margin,residual") + 1
    bad = corrupt_line(out, row, lambda r: r.rsplit(",", 1)[0] + ",2e-10")
    assert "not below tol" in oracles.judge(job, code, bad, err)
    assert "exit code" in oracles.judge(job, 1, out, err)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("section", ["symbolic", "numeric"])
def test_suite_oracle_flags_dropped_or_renamed_identity(fmt, section):
    job = Job("verify", ("verify", "--n", "16", "--format", fmt), {"tol": 1e-10})
    code, out, err = cli(job)
    assert oracles.judge(job, code, out, err) is None
    if fmt == "json":
        doc = json.loads(out)
        dropped = dict(doc, **{section: doc[section][1:]})
        key = "identity" if section == "symbolic" else "identity_name"
        renamed = dict(doc, **{section: [dict(doc[section][0], **{key: "other"})] + doc[section][1:]})
        bad = [json.dumps(dropped), json.dumps(renamed)]
    else:
        header = "identity,zero,term_count" if section == "symbolic" else "identity,margin,residual"
        row = out.split("\n").index(header) + 1
        dropped = "\n".join(line for i, line in enumerate(out.split("\n")) if i != row)
        bad = [dropped, corrupt_line(out, row, lambda r: "other," + r.split(",", 1)[1])]
    for text in bad:
        assert f"{section} identities" in oracles.judge(job, code, text, err)


def test_spectrum_oracle_flags_shifted_eigenvalue():
    job = Job("spectrum", ("spectrum", "--n", "12", "--a", "0.5"), {"n": 12, "a": 0.5})
    code, out, err = cli(job)
    assert oracles.judge(job, code, out, err) is None
    bad = corrupt_line(out, 5, lambda r: r.split(",")[0] + "," + repr(float(r.split(",")[1]) + 1e-9))
    assert "oracle" in oracles.judge(job, code, bad, err)


def test_check_oracle_flags_flipped_verdict():
    zero = Job("check", ("check", "[D,P] - A"), {"zero": True})
    code, out, err = cli(zero)
    assert (code, oracles.judge(zero, code, out, err)) == (0, None)
    assert oracles.judge(zero, 1, out.replace("ZERO", "NONZERO"), err) is not None
    assert oracles.judge(zero, 0, out.replace("ZERO", "NONZERO"), err) is not None
    nonzero = Job("check", ("check", "[D,P] - A + P"), {"zero": False})
    code, out, err = cli(nonzero)
    assert (code, oracles.judge(nonzero, code, out, err)) == (1, None)
    assert oracles.judge(nonzero, 0, "0\nZERO\n", err) is not None


def test_continuum_oracle_flags_slope_1_3():
    job = Job("continuum", ("continuum", "--spacings", "0.4,0.2,0.1"), {"spacings": (0.4, 0.2, 0.1)})
    code, out, err = cli(job)
    assert oracles.judge(job, code, out, err) is None
    bad = corrupt_line(out, -2, lambda r: "slope,1.3,,")
    assert "slope" in oracles.judge(job, code, bad, err)


def test_eigvec_oracle_flags_bad_summary_and_vector():
    job = Job("eigvec", ("eigvec", "--x", "0.5", "--a", "1", "--n", "8"),
              {"x": 0.5, "a": 1.0, "n": 8})
    code, out, err = cli(job)
    assert oracles.judge(job, code, out, err) is None
    summary = json.loads(err)
    summary["max_dev_recurrence_vs_closed"] = 1e-3
    assert "deviation" in oracles.judge(job, code, out, json.dumps(summary))
    bad = corrupt_line(out, 3, lambda r: ",".join(r.split(",")[:2] + ["0.5", "0"]))
    assert oracles.judge(job, code, bad, err) is not None


def test_self_time_on_hand_built_span_tree():
    # main [0, 10] -> a [1, 4] -> b [2, 3]
    #              -> a [5, 9]    (a second call)
    tree = [["main", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 2], ["b", 2.0, 3.0, 1, 0],
            ["a", 5.0, 9.0, 0, 3]]
    table = spans.self_times(tree)
    assert table["main"] == (10.0 - 3.0 - 4.0, 1, 0)
    assert table["a"] == ((3.0 - 1.0) + 4.0, 2, 5)
    assert table["b"] == (1.0, 1, 0)
    assert spans.inclusive_time(tree, "a") == 7.0
    assert sum(t[0] for t in table.values()) == 10.0


def test_tracer_wraps_every_binding_and_restores_them():
    pkg, lib, user = (types.ModuleType(n) for n in ("tpkg", "tpkg.lib", "tpkg.user"))

    def leaf(n):
        return n if n <= 1 else leaf_ref(n - 1)   # re-enters through the module binding

    def leaf_ref(n):
        return lib.leaf(n)

    class Op:
        def __init__(self, n):
            self.n = n
            self.check()

        def check(self):
            pass

        def __matmul__(self, other):
            return Op(self.n + other.n)

    lib.leaf = leaf
    user.leaf = leaf                             # `from .lib import leaf`
    user.call = lambda n: user.leaf(n)
    originals = dict(vars(Op))
    sys.modules.update({"tpkg": pkg, "tpkg.lib": lib, "tpkg.user": user})
    try:
        tracer = spans.Tracer()
        tracer.install("tpkg", {(lib, "leaf"): ("lib.leaf", lambda r: r)},
                       {(Op, "__matmul__"): "Op.matmul"},
                       {(Op, "check"): lambda op: {"ops": 1, "size": op.n}})
        assert user.leaf is lib.leaf is not leaf
        assert user.call(3) == 1
        assert (Op(1) @ Op(2)).n == 3
        assert [(s[spans.NAME], s[spans.PARENT], s[spans.COUNT]) for s in tracer.spans] == \
            [("lib.leaf", -1, 1), ("Op.matmul", -1, 0)]
        assert tracer.counters == {"ops": 3, "size": 6}
        tracer.uninstall()
        assert user.leaf is leaf and lib.leaf is leaf
        assert dict(vars(Op)) == originals
    finally:
        for name in ("tpkg", "tpkg.lib", "tpkg.user"):
            sys.modules.pop(name)


def test_latency_is_divided_by_median_slowness_of_probes_around_it(monkeypatch):
    monkeypatch.setattr(run, "run_job", lambda cli, job: (0.3, 0, "", "", None))
    monkeypatch.setattr(oracles, "judge", lambda job, code, out, err: None)
    monkeypatch.setattr(run, "PROBE_WINDOW", 2)
    bench = run.Run()
    # Probes before job 1 and after each job; the host halves its speed
    # from job 4 on, and the probe after job 2 catches a hiccup.
    slowness = iter([1.0, 1.0, 9.0, 1.0, 2.0, 2.0, 2.0])
    bench.probe = lambda: next(slowness)
    latencies, nbytes = bench.one_pass([f"job {i}" for i in range(1, 7)])
    # job i's window is probes i-1 .. i+2 (0-based), clipped at the ends
    assert latencies == pytest.approx([0.3 / 1.0, 0.3 / 1.0, 0.3 / 1.5, 0.3 / 2.0,
                                       0.3 / 2.0, 0.3 / 2.0])
    assert nbytes == 0 and bench.attempted == 6 and not bench.failures


def test_job_latency_is_median_over_passes():
    passes = [([1.0, 5.0], 0, None), ([3.0, 4.0], 0, None), ([2.0, 9.0], 0, None)]
    assert run.job_latencies(passes) == [2.0, 5.0]
