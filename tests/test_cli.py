import json
import math
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from importlib import import_module

import numpy as np
import pytest

from cli_cases import (EDGE_CASES, GOLDEN, GOLDEN_CASES, PARSER_CASES, POWER_CUTOFF_CASES,
                       USAGE_ERROR_CASES, parser_argv, run_cli, subprocess_env)
from momlat import cli, eigen


class TestExitCodes:
    def test_verify_success(self):
        code, out, _ = run_cli("verify", "--p0", "0", "--a", "0.1", "--n", "64")
        assert code == 0
        # 14 symbolic rows + 16 numeric rows + 2 headers + separator
        rows = [l for l in out.splitlines() if l]
        assert len(rows) == 32

    def test_verify_small_lattice_usage_error(self):
        code, _, err = run_cli("verify", "--n", "4")
        assert code == 2
        assert "identity suite needs at least 8 lattice points, got 4" in err

    def test_verify_impossible_tolerance(self):
        code, _, _ = run_cli("verify", "--p0", "0", "--a", "0.1", "--n", "64",
                             "--tol", "0")
        assert code == 1

    def test_unknown_flag_usage_error(self):
        code, _, _ = run_cli("verify", "--bogus", "1")
        assert code == 2

    def test_check_zero_expression(self):
        code, out, _ = run_cli("check", "[A,P] - a*A")
        assert code == 0
        assert out.splitlines() == ["0", "ZERO"]

    def test_check_canonical_commutator(self):
        code, out, _ = run_cli("check", "[X,P] + i - (i*a/2)*Q")
        assert code == 0
        assert out.splitlines()[-1] == "ZERO"

    def test_check_nonzero_expression(self):
        code, out, _ = run_cli("check", "A*P")
        assert code == 1
        assert out.splitlines() == ["(P+a)*A", "NONZERO"]

    @pytest.mark.parametrize("expression,lines,exit_code", [
        ("-A", ["-A", "NONZERO"], 1),
        ("-{Q,P}+{Q,P}", ["0", "ZERO"], 0),
        ("--A", ["A", "NONZERO"], 1),
        ("-[X,P] - i", ["1/2*i*A-i+1/2*i*Abar", "NONZERO"], 1),
    ])
    def test_check_expression_with_leading_minus(self, expression, lines, exit_code):
        expected = (exit_code, "\n".join(lines) + "\n", "")
        assert run_cli("check", expression) == expected
        assert run_cli("check", "--", expression) == expected

    def test_check_help_and_missing_expression(self):
        for flag in ("-h", "--help", "--he"):
            code, out, err = run_cli("check", flag)
            assert (code, err) == (0, "")
            assert out.startswith("usage: momlat check [-h] expression")
        code, out, err = run_cli("check")
        assert (code, out) == (2, "")
        assert "the following arguments are required: expression" in err

    def test_check_parse_error_position(self):
        code, _, err = run_cli("check", "[X,[P,")
        assert code == 2
        assert "offset 6" in err

    @pytest.mark.parametrize("argv,bad", [
        (("verify", "--p0", "nan"), "p0=nan"),
        (("verify", "--a", "inf"), "a=inf"),
        (("spectrum", "--a", "inf"), "a=inf"),
        (("eigvec", "--x", "nan"), "x=nan"),
        (("verify", "--tol", "nan"), "--tol nan"),
        (("verify", "--tol", "-1"), "--tol -1"),
        (("well", "--L", "1", "--tol", "nan"), "--tol nan"),
        (("eigvec", "--x", "0.5", "--phi0-phase", "inf"), "phase=inf"),
        (("eigvec", "--x", "0.5", "--phi0-phase", "nan"), "phase=nan"),
        (("eigvec", "--x", "0.5", "--phi0-phase", "inf", "--format", "json"), "phase=inf"),
        (("eigvec", "--x", "0.5", "--phi0-phase", "nan", "--format", "json"), "phase=nan"),
    ])
    def test_non_finite_input_usage_error(self, argv, bad):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert bad in err
        assert out == ""

    @pytest.mark.parametrize("argv,lattice,identity", [
        (("verify", "--a", "1e200"), "a=1e+200", "H_shift_form"),
        (("verify", "--p0", "1e300", "--a", "1e299"), "p0=1e+300", "H_shift_form"),
        (("well", "--L", "1e-300", "--levels", "8"), "a=3.14159265358979e+300", "H_shift_form"),
    ])
    def test_overflowing_lattice_usage_error(self, argv, lattice, identity):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert "overflowed" in err and lattice in err and identity in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("argv,message", USAGE_ERROR_CASES)
    def test_degenerate_input_usage_error(self, argv, message):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", EDGE_CASES, ids=" ".join)
    def test_edge_call_runs_cleanly(self, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(*argv)
        assert code == 0
        assert out
        assert "Warning" not in err and "Traceback" not in err and "error" not in err

    @pytest.mark.parametrize("argv,exit_code,text", PARSER_CASES)
    def test_parser_ends_call(self, argv, exit_code, text):
        code, out, err = run_cli(*argv)
        assert code == exit_code
        shown, silent = (out, err) if exit_code == 0 else (err, out)
        assert silent == ""
        assert shown.startswith("usage: momlat")
        assert text in shown
        assert "Traceback" not in err

    def test_check_work_budget(self):
        start = time.perf_counter()
        code, out, err = run_cli("check", "H^16*H^16*H^16")
        assert time.perf_counter() - start < 30
        assert code == 2
        assert out == ""
        assert "work limit of 2000000 term pairs" in err
        code, out, _ = run_cli("check", "H^16*H^4")
        assert code == 1
        assert out.splitlines()[-1] == "NONZERO"

    def test_nested_adjoints_end_at_the_work_limit(self):
        # 190 adjoints of H^16*H^8's 10,078 terms would take ~19 s; the limit
        # charges each adjoint's 125,078 written terms, so the fifth is refused
        start = time.perf_counter()
        code, out, err = run_cli("check", "adj(" * 190 + "H^16*H^8" + ")" * 190)
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert "work limit of 2000000 term pairs in products and adjoints" in err

    def test_check_prints_coefficients_longer_than_int_to_text_allows(self):
        # (10^3000 - 1)^2 has 6000 digits; str() prints at most 4300
        nines = "9" * 3000
        square = "9" * 2999 + "8" + "0" * 2999 + "1"
        code, out, err = run_cli("check", f"({nines})^2")
        assert (code, out, err) == (1, square + "\nNONZERO\n", "")
        code, out, err = run_cli("check", f"({nines})^2*P/(2*i)")
        assert (code, out, err) == (1, f"-{square}/2*i*P\nNONZERO\n", "")
        code, out, err = run_cli("check", f"P/({nines})^2")
        assert (code, out, err) == (1, f"1/{square}*P\nNONZERO\n", "")

    def test_spectrum_size_cap(self):
        n = eigen.MAX_SPECTRUM_POINTS + 1
        start = time.perf_counter()
        code, out, err = run_cli("spectrum", "--n", str(n))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert f"n={n} points exceeds the limit of {eigen.MAX_SPECTRUM_POINTS}" in err

    @pytest.mark.parametrize("argv,limit,message", [
        (("verify", "--n"), "operators.MAX_SUITE_POINTS", "identity suite on n={n} points"),
        (("well", "--L", "1", "--levels"), "operators.MAX_SUITE_POINTS",
         "identity suite on n={n} points"),
        (("eigvec", "--x", "0.5", "--n"), "cli.MAX_EIGVEC_POINTS", "eigenvector of n={n} points"),
    ])
    @pytest.mark.parametrize("huge", [False, True])
    def test_size_caps_refuse_before_allocating(self, argv, limit, message, huge):
        module, name = limit.split(".")
        cap = getattr(import_module(f"momlat.{module}"), name)
        n = 10 ** 12 if huge else cap + 1
        tracemalloc.start()
        try:
            code, out, err = run_cli(*argv, str(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert f"momlat: error: {message.format(n=n)} exceeds the limit of {cap}" in err
        assert "Traceback" not in err
        # one complex array of the capped size would take 16 MB
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("argv,limit", [
        (("verify", "--n"), "operators.MAX_SUITE_POINTS"),
        (("well", "--L", "1", "--levels"), "operators.MAX_SUITE_POINTS"),
        (("eigvec", "--x", "0.5", "--n"), "cli.MAX_EIGVEC_POINTS"),
    ])
    def test_size_cap_itself_is_accepted(self, argv, limit, monkeypatch):
        # the real caps take seconds and ~1 GB, so a small cap stands in
        module, name = limit.split(".")
        monkeypatch.setattr(import_module(f"momlat.{module}"), name, 24)
        assert run_cli(*argv, "24")[0] in (0, 1)
        code, out, err = run_cli(*argv, "25")
        assert (code, out) == (2, "")
        assert "n=25 points exceeds the limit of 24" in err

    def test_eigvec_band_violation(self):
        code, _, err = run_cli("eigvec", "--x", "2", "--a", "1", "--n", "5")
        assert code == 2
        assert "outside lattice band" in err


class TestEigvec:
    def test_x_zero_pattern(self):
        code, out, _ = run_cli("eigvec", "--x", "0", "--a", "1", "--n", "5")
        assert code == 0
        rows = out.strip().splitlines()
        s = 1 / math.sqrt(3)
        values = [float(r.split(",")[2]) for r in rows[1:]]
        assert values == pytest.approx([s, 0, s, 0, s], abs=1e-12)

    def test_json_summary_deviation_and_norms(self):
        code, out, _ = run_cli("eigvec", "--x", "0.5", "--a", "1", "--n", "8",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_dev_recurrence_vs_closed"] < 1e-12
        assert doc["phi0_magnitude_direct"] == pytest.approx(1 / math.sqrt(6))
        assert doc["phi0_magnitude_formula"] == pytest.approx(
            doc["phi0_magnitude_direct_first_N"], rel=1e-12)

    def test_known_normalization_disagreement_reported(self):
        _, out, _ = run_cli("eigvec", "--x", "0", "--a", "1", "--n", "5",
                            "--format", "json")
        doc = json.loads(out)
        assert doc["phi0_magnitude_formula"] ** 2 == pytest.approx(0.5)
        assert doc["phi0_magnitude_direct"] ** 2 == pytest.approx(1 / 3)

    def test_csv_mode_summary_on_stderr(self):
        _, out, err = run_cli("eigvec", "--x", "0.3", "--a", "1", "--n", "8")
        assert out.startswith("j,p,re,im")
        assert json.loads(err)["normalized"] is True

    def test_single_point_lattice(self):
        code, out, err = run_cli("eigvec", "--x", "0.5", "--a", "1", "--n", "1")
        assert code == 0
        doc = json.loads(err)
        assert doc["phi0_magnitude_formula"] is None
        assert doc["phi0_magnitude_direct_first_N"] is None
        assert float(out.splitlines()[1].split(",")[2]) == pytest.approx(1.0)

    def test_overflowing_formula_reported_as_null(self):
        code, out, _ = run_cli("eigvec", "--x", "0.5", "--a", "1e-320", "--n", "4",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["phi0_magnitude_formula"] is None
        assert math.isfinite(doc["phi0_magnitude_direct"])

    def test_overflowing_bracket_reported_as_null(self):
        code, out, err = run_cli("eigvec", "--x", "0", "--a", "7e307", "--n", "2",
                                 "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["phi0_magnitude_formula"] is None
        assert doc["phi0_magnitude_direct"] == doc["phi0_magnitude_direct_first_N"] > 0

    def test_single_point_at_the_top_of_the_range(self):
        # one point takes no recurrence step, so 2*a overflowing does not matter
        code, out, err = run_cli("eigvec", "--x", "0", "--a", "1e308", "--n", "1",
                                 "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["values"] == [[1e-154, 0]]
        assert doc["max_dev_recurrence_vs_closed"] == 0

    def test_seed_phase_flag(self):
        _, _, err = run_cli("eigvec", "--x", "0", "--a", "1", "--n", "5",
                            "--phi0-phase", "1.5707963267948966")
        phi0 = json.loads(err)["phi0"]
        assert phi0[0] == pytest.approx(0.0, abs=1e-12)
        assert phi0[1] == pytest.approx(1 / math.sqrt(3))

    @pytest.mark.parametrize("argv,message", [
        (("eigvec", "--x", "0.5", "--n", "3000000", "--p0", "1e308"), "consecutive momenta"),
        (("eigvec", "--x", "20", "--a", "0.1", "--n", "4", "--p0", "1e308"),
         "consecutive momenta"),
        (("eigvec", "--x", "0", "--a", "7e307", "--n", "4"), "the last momentum p0+a*(n-1)"),
    ])
    def test_refused_csv_grid_computes_no_eigenvector(self, argv, message, monkeypatch):
        def refuse(*args):
            raise AssertionError("an eigenvector was computed")

        monkeypatch.setattr(eigen, "eigenvector_closed_form", refuse)
        monkeypatch.setattr(eigen, "eigenvector_recurrence", refuse)
        tracemalloc.start()
        try:
            code, out, err = run_cli(*argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith("momlat: error: " + message)
        # one momenta array at the size cap: 24 MB
        assert peak < 64e6

    @pytest.mark.parametrize("argv", POWER_CUTOFF_CASES, ids=" ".join)
    def test_power_cutoff_output_is_that_of_np_power(self, argv, monkeypatch):
        shared_log = run_cli(*argv)
        assert shared_log[0] == 0
        monkeypatch.setattr(eigen, "_powers", np.power)
        assert shared_log == run_cli(*argv)


class TestSpectrumAndContinuum:
    def test_spectrum_three_points(self):
        code, out, _ = run_cli("spectrum", "--n", "3", "--a", "1")
        assert code == 0
        values = [float(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
        assert values == pytest.approx([-0.7071068, 0.0, 0.7071068], abs=1e-7)

    def test_continuum_slope(self):
        code, out, _ = run_cli("continuum", "--spacings", "0.1,0.05,0.025,0.0125")
        assert code == 0
        slope_line = out.strip().splitlines()[-1]
        assert slope_line.startswith("slope,")
        assert float(slope_line.split(",")[1]) == pytest.approx(2.0, abs=0.1)

    def test_continuum_json(self):
        code, out, _ = run_cli("continuum", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["rows"]) == 4
        assert doc["slope"] == pytest.approx(2.0, abs=0.1)

    def test_continuum_bad_spacings(self):
        code, _, err = run_cli("continuum", "--spacings", "0.1,0.2,0.3")
        assert code == 2
        assert "decreasing" in err

    def test_spectrum_json(self):
        _, out, _ = run_cli("spectrum", "--n", "2", "--a", "1", "--format", "json")
        doc = json.loads(out)
        assert doc["eigenvalues"] == pytest.approx([-0.5, 0.5], abs=1e-12)


class TestWell:
    def test_unit_width_passes(self):
        code, out, _ = run_cli("well", "--L", "1", "--levels", "16")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p0,a,levels"
        p0, a, levels = lines[1].split(",")
        assert float(p0) == pytest.approx(math.pi, abs=1e-8)
        assert float(a) == pytest.approx(math.pi, abs=1e-8)
        assert levels == "16"

    def test_level_floor(self):
        code, _, err = run_cli("well", "--L", "1", "--levels", "4")
        assert code == 2
        assert "identity suite needs at least 8 lattice points, got 4" in err

    def test_json_envelope(self):
        code, out, _ = run_cli("well", "--L", "2", "--levels", "12",
                               "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["passed"] is True
        assert doc["lattice"]["levels"] == 12


class TestGoldenFiles:
    @pytest.mark.parametrize("fname", sorted(GOLDEN_CASES))
    def test_matches_golden(self, fname):
        _, out, _ = run_cli(*GOLDEN_CASES[fname])
        assert out == (GOLDEN / fname).read_text()

    @pytest.mark.parametrize("fname", sorted(GOLDEN_CASES))
    def test_byte_deterministic(self, fname):
        _, first, _ = run_cli(*GOLDEN_CASES[fname])
        _, second, _ = run_cli(*GOLDEN_CASES[fname])
        assert first == second


class TestParserReuse:
    """main() parses with one parser built at import; no call may leave state
    in it that changes a later call."""

    def test_replay_is_byte_identical(self):
        argvs = [*GOLDEN_CASES.values(), *(argv for argv, _ in USAGE_ERROR_CASES)]
        enders = [argv for argv, _, _ in PARSER_CASES]
        outcomes = {}
        # the second pass runs backwards, so each call follows other ones
        for order in (argvs, argvs[::-1]):
            for k, argv in enumerate(order):
                for call in (argv, enders[k % len(enders)]):
                    outcomes.setdefault(call, []).append(run_cli(*call))
        for call, seen in outcomes.items():
            assert seen == seen[:1] * len(seen), call
        for fname, argv in GOLDEN_CASES.items():
            assert outcomes[argv][0][1] == (GOLDEN / fname).read_text(), fname
        for argv, message in USAGE_ERROR_CASES:
            code, out, err = outcomes[argv][0]
            assert (code, out) == (2, "") and message in err, argv

    def test_no_parser_built_per_call(self, monkeypatch):
        def refuse():
            raise AssertionError("main() built a parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert {argv[0] for argv in GOLDEN_CASES.values()} == \
            {"verify", "check", "eigvec", "spectrum", "continuum", "well"}
        for fname, argv in GOLDEN_CASES.items():
            assert run_cli(*argv)[1] == (GOLDEN / fname).read_text(), fname


class TestDirectParse:
    """An argv that starts with a subcommand name is parsed by that
    subcommand's parser alone; every call ends as under the full parse, which
    runs when `_SUBCOMMANDS` is empty.  The argvs are `parser_argv`'s seeded
    draws over every option of every subcommand (as `--opt V`, as
    `--opt=V`, alone or cut to a prefix), help tokens, `--`, unknown options,
    extra positionals and values that start with '-'."""

    @staticmethod
    def argv(rng):
        return parser_argv(rng, cli._SUBCOMMANDS)

    @pytest.mark.parametrize("seed", range(6))
    def test_calls_end_as_under_the_full_parse(self, seed, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # --out writes its file here
        rng = random.Random(seed)
        argvs = [self.argv(rng) for _ in range(150)]
        full, namespaces = [], []
        parse_args, parse = cli._PARSER.parse_args, cli._parse
        monkeypatch.setattr(cli._PARSER, "parse_args",
                            lambda argv: full.append(argv) or parse_args(argv))
        monkeypatch.setattr(cli, "_parse", lambda argv: namespaces.append(parse(argv)) or
                            namespaces[-1])
        direct = [run_cli(*argv) for argv in argvs]
        # both ways of parsing are taken
        assert 0 < len(full) < len(argvs) / 2
        parsed = [vars(args) for args in namespaces]
        namespaces.clear()
        monkeypatch.setattr(cli, "_SUBCOMMANDS", {})
        for argv, outcome in zip(argvs, direct):
            assert run_cli(*argv) == outcome, argv
        assert [vars(args) for args in namespaces] == parsed


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "spectrum.csv"
        code, out, _ = run_cli("spectrum", "--n", "3", "--a", "1",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == (GOLDEN / "spectrum_n3_a1.csv").read_text()

    def test_eigvec_out_moves_summary_to_stdout(self, tmp_path):
        target = tmp_path / "vec.csv"
        code, out, _ = run_cli("eigvec", "--x", "0", "--a", "1", "--n", "5",
                               "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("j,p,re,im")
        assert json.loads(out)["n"] == 5


class TestRandomArgv:
    """Seeded random calls over all six subcommands end in a result or in a
    usage error: exit 0, 1 or 2, never a traceback or a warning, and no
    `nan` on stdout.  The values are extreme where the code has edges, and
    one in twenty is malformed (`--opt=--`, `--opt=`); the sizes are small
    (n <= 64, exponents <= 4, spacings >= 0.01), so each call is cheap."""

    FLOATS = ("0", "-0", "5e-324", "-5e-324", "1e17", "-1e17", "1e308", "-1e308", "inf",
              "-inf", "nan", "0.1", "1", "-3.5", "0.25", "2")
    # values that are no value at all, or an option's name
    MALFORMED = ("--", "-", "--x", "")
    WORDS = ("A", "Abar", "P", "I", "i", "a", "D", "Dbar", "X", "Q", "H", "2", "1/3", "0")

    @classmethod
    def expression(cls, rng, depth=2):
        if depth == 0 or rng.random() < 0.3:
            word = rng.choice(cls.WORDS)
            return f"{word}^{rng.randint(0, 4)}" if rng.random() < 0.3 else word
        x, y = cls.expression(rng, depth - 1), cls.expression(rng, depth - 1)
        shape = rng.choice(("{}+{}", "{}-{}", "{}*{}", "({})/({})", "[{},{}]", "{{{},{}}}",
                            "({})^" + str(rng.randint(0, 4))))
        return shape.format(x, y)

    @classmethod
    def argv(cls, rng):
        real = lambda: rng.choice(cls.FLOATS)
        size = lambda: str(rng.randint(-1, 64))
        command = rng.choice(("verify", "check", "eigvec", "spectrum", "continuum", "well"))
        if command == "check":
            return (command, cls.expression(rng))
        options = {
            "verify": (("--p0", real), ("--a", real), ("--n", size), ("--tol", real)),
            "eigvec": (("--p0", real), ("--a", real), ("--n", size), ("--phi0-phase", real)),
            "spectrum": (("--p0", real), ("--a", real), ("--n", size)),
            "continuum": (("--window", lambda: f"{real()}:{real()}"),
                          ("--spacings", lambda: ",".join(
                              rng.choice(("0.01", "0.05", "0.1", "1", "1e17", "inf", "nan"))
                              for _ in range(rng.randint(1, 4))))),
            "well": (("--levels", size), ("--hbar", real), ("--tol", real)),
        }[command]
        if command != "continuum":
            options += (("--format", lambda: "json"),)
        option = lambda flag, value: \
            f"{flag}={rng.choice(cls.MALFORMED) if rng.random() < 0.05 else value()}"
        required = {"eigvec": [option("--x", real)], "well": [option("--L", real)]}
        argv = [command, *required.get(command, ())]
        for flag, value in options:
            if rng.random() < (0.3 if flag == "--format" else 0.5):
                argv.append(option(flag, value))
        return tuple(argv)

    @pytest.mark.parametrize("seed", range(10))
    def test_every_call_ends_cleanly(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            argv = self.argv(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(*argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err and "Warning" not in err, argv
            if code == 2:
                assert err.startswith(("momlat: error: ", "usage: momlat")), argv
            else:
                assert "nan" not in out.lower(), argv


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "momlat", "check", "[P,P]"],
            capture_output=True, text=True, timeout=120, env=subprocess_env())
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["0", "ZERO"]

    def test_spectrum_loads_no_scipy(self):
        code = ("import sys, momlat, momlat.cli\n"
                "assert momlat.cli.main(['spectrum', '--n', '16']) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_module_invocation_expression_with_leading_minus(self):
        proc = subprocess.run(
            [sys.executable, "-m", "momlat", "check", "-{Q,P}+{Q,P}"],
            capture_output=True, text=True, timeout=120, env=subprocess_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\nZERO\n", "")

    def test_dsterf_bound_on_first_spectrum_only(self):
        code = ("import momlat.cli\n"
                "from momlat import eigen\n"
                "bound = lambda: print('bound', eigen._dsterf.cache_info().currsize)\n"
                "bound()\n"
                "assert momlat.cli.main(['check', 'A*P']) == 1\n"
                "bound()\n"
                "assert momlat.cli.main(['spectrum', '--n', '16']) == 0\n"
                "bound()\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        marks = [line for line in proc.stdout.splitlines() if line.startswith("bound ")]
        assert marks == ["bound 0", "bound 0", "bound 1"]

    def test_module_invocation_failure_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "momlat", "verify", "--n", "4"],
            capture_output=True, text=True, timeout=120, env=subprocess_env())
        assert proc.returncode == 2
