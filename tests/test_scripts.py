"""Smoke runs of the scripts: each exits 0 and prints its verdict or its result;
the one-shot bench measures one call."""

import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import momlat.cli
from cli_cases import parser_argv, subprocess_env

SCRIPTS = Path(__file__).parent.parent / "scripts"
SRC = Path(momlat.__file__).parent.parent

sys.path.insert(0, str(SCRIPTS))
import byte_diff  # noqa: E402  (scripts/ is not a package)
import oneshot_bench  # noqa: E402
import parser_versions  # noqa: E402


@pytest.mark.parametrize("script,verdict", [
    ("spectrum_study.py", "the band fills as n grows but no eigenvalue leaves [-1/a, 1/a]"),
    ("continuum_study.py", "second-order convergence confirmed"),
    ("normalization_comparison.py",
     "formula == direct-first-N everywhere; the N+1-point sum generally differs"),
])
def test_script_runs_to_its_verdict(script, verdict, tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script)], capture_output=True,
                          text=True, timeout=120, env=subprocess_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == verdict


def run_continuum_study(tmp_path, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / "continuum_study.py"), *args],
                          capture_output=True, text=True, timeout=120, env=subprocess_env(),
                          cwd=tmp_path)


def test_continuum_study_with_a_zero_residual(tmp_path):
    # on [0, 2^-27] the Gaussian reads 1.0 at every point, and on the dyadic
    # spacings 2^-30, 2^-31, 2^-32 every residual is exactly 0
    proc = run_continuum_study(tmp_path, "--window", "0", "7.450580596923828e-09",
                               "--coarsest", "9.313225746154785e-10", "--halvings", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[1:] for line in lines[1:4]] == [["0.000000e+00", "0.00000", "-"]] * 3
    # three different nonzero spacings, printed with significant digits
    assert [line.split()[0] for line in lines[1:4]] == ["9.313e-10", "4.657e-10", "2.328e-10"]
    assert lines[-1] == "log-log slope: nan  (second-order limit => 2)"


def test_continuum_study_with_a_subnormal_scale(tmp_path):
    # far out in the Gaussian's tail its largest sample is 5e-324
    proc = run_continuum_study(tmp_path, "--window", "38.6", "45", "--coarsest", "1",
                               "--halvings", "3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "continuum_study.py: error: the test function's largest value on the lattice "
        "p0=38.6,a=1,n=7 is 4.94065645841247e-324, below the smallest normal double, so the "
        "residual has no scale\n")


def run_byte_diff(parent, change, seeds, tmp_path):
    return subprocess.run([sys.executable, str(SCRIPTS / "byte_diff.py"), str(parent),
                           str(change), "--seeds", seeds], capture_output=True, text=True,
                          timeout=300, env=subprocess_env(), cwd=tmp_path)


def test_byte_diff_of_a_tree_against_itself(tmp_path):
    src = SCRIPTS.parent / "src"
    proc = run_byte_diff(src, src, "1", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"0 of \d+ calls differ in stdout, stderr or exit code",
                        proc.stdout.splitlines()[-1])
    assert len(proc.stdout.splitlines()) == 1


def test_byte_diff_names_the_calls_that_differ(tmp_path):
    # with no seed, only the warm-up probes and the argvs of the golden,
    # usage-error, edge, parser, scale and power-cutoff cases are replayed
    change = tmp_path / "change"
    shutil.copytree(SCRIPTS.parent / "src" / "momlat", change / "momlat",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = change / "momlat" / "cli.py"
    text = cli.read_text().replace('else "NONZERO"', 'else "NONZERO "')
    cli.write_text(text.replace("identity suites\"", "identity suite\""))
    algebra = change / "momlat" / "algebra.py"
    algebra.write_text(algebra.read_text().replace("integer literal of", "integer literal with"))
    proc = run_byte_diff(SCRIPTS.parent / "src", change, "1-0", tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert "differs in stdout: momlat check A*P" in lines
    assert "differs in stdout: momlat check H^3" in lines
    assert "differs in stdout: momlat --help" in lines
    assert "differs in stdout: momlat check H^12" in lines
    # the 5001-digit literal shows as its head, its tail and its length
    assert "differs in stderr: momlat check 10000000000000000000...00000000000000000000" \
        "[5001 chars]" in lines
    assert max(map(len, lines)) < 100
    replayed = len(byte_diff.calls(range(1, 1)))
    assert lines[-1] == f"8 of {replayed} calls differ in stdout, stderr or exit code"


def test_oneshot_bench_measures_one_call():
    label = "momlat verify --n 64"
    results = oneshot_bench.measure({label: oneshot_bench.COMMANDS[label]}, 1, SRC)
    assert list(results) == [label]
    modes = results[label]
    assert list(modes) == ["host", "cached"]
    for mode in modes.values():
        assert mode["exit_codes"] == [0]
        wall = mode["wall_ms"]
        assert 0 < wall["q1"] == wall["median"] == wall["q3"]
        assert mode["max_rss_mb"]["median"] > 0


def test_oneshot_bench_measures_two_calls_over_the_floor():
    label = "momlat verify --n 64"
    commands = {label: oneshot_bench.COMMANDS[label]}
    commands[oneshot_bench.FLOOR] = oneshot_bench.COMMANDS[oneshot_bench.FLOOR]
    results = oneshot_bench.measure(commands, 2, SRC)
    for mode in results[label].values():
        over = mode["over_floor_ms"]
        assert over["q1"] <= over["median"] <= over["q3"]
    assert all("over_floor_ms" not in mode for mode in results[oneshot_bench.FLOOR].values())


def test_oneshot_bench_pairs_two_trees_round_by_round():
    label = "momlat check H^12"
    commands = {label: oneshot_bench.COMMANDS[label]}
    change, parent, paired = oneshot_bench.measure_pair(commands, 1, SRC, SRC)
    for results in (change, parent):
        assert list(results) == [label]
        assert [mode["exit_codes"] for mode in results[label].values()] == [[1], [1]]
    assert list(paired) == [label] and list(paired[label]) == ["host", "cached"]
    for mode, pair in paired[label].items():
        diff = pair["diff_ms"]
        assert diff["q1"] == diff["median"] == diff["q3"]
        assert diff["median"] == pytest.approx(change[label][mode]["wall_ms"]["median"]
                                               - parent[label][mode]["wall_ms"]["median"],
                                               abs=0.11)
        assert pair["change_faster"] + pair["parent_faster"] <= 1


def test_parser_versions_outcomes_are_those_of_the_cli(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "parser_versions.py"), sys.executable],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 of {parser_versions.COUNT} argvs differ in " \
        "exit code or namespace between the interpreters (1 run)"
    # one interpreter, loading cli.py with stand-ins, against the real cli in process
    rng = random.Random(0)
    argvs = [parser_argv(rng, momlat.cli._SUBCOMMANDS) for _ in range(parser_versions.COUNT)]
    outcomes = parser_versions.run(sys.executable, SRC, argvs)["outcomes"]
    assert outcomes == [parser_versions.outcome(momlat.cli, argv) for argv in argvs]
    # the draws hold both option forms, the values that hid `--opt=--` and every ending
    tokens = [token for argv in argvs for token in argv]
    assert sum(token.startswith("--") and token.endswith("=--") for token in tokens) > 10
    for value in ("--", "--A", "-1e3", "-", ""):
        assert value in tokens, value
    pairs = {pair for argv in argvs for pair in zip(argv, argv[1:])}
    assert any(option in ("--p0", "--a", "--tol") and value == "-1e3" for option, value in pairs)
    assert set(map(parser_versions.shown, outcomes)) == {"parsed", "0", "2"}
    assert not any(value in ("[]", "'--'") and dest != "expression"
                   for _, namespace in outcomes if namespace for dest, value in namespace.items())


def test_the_case_tables_import_without_momlat():
    # scripts/byte_diff.py imports them before it imports each tree's momlat;
    # the child could import momlat, from the same tree as these tests
    code = ("import sys\n"
            "import cli_cases\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'momlat'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=subprocess_env(), cwd=Path(__file__).parent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
