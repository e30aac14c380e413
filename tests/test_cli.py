import json
import math
import subprocess
import sys
import time

import pytest

from cli_cases import GOLDEN, GOLDEN_CASES, run_cli, subprocess_env


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
        assert "n must be >= 8" in err

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
    ])
    def test_non_finite_input_usage_error(self, argv, bad):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert bad in err
        assert out == ""

    @pytest.mark.parametrize("argv,lattice,identity", [
        (("verify", "--a", "1e200"), "a=1e+200", "H_shift_form"),
        (("verify", "--p0", "1e300"), "p0=1e+300", "H_shift_form"),
        (("well", "--L", "1e-300", "--levels", "8"), "a=3.14159265358979e+300", "H_shift_form"),
    ])
    def test_overflowing_lattice_usage_error(self, argv, lattice, identity):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert "overflowed" in err and lattice in err and identity in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("argv,message", [
        (("continuum", "--window=0:0.05", "--spacings", "0.1,0.05,0.025"),
         "spacing 0.1 leaves 1 point(s) in the window 0.0:0.05"),
        (("continuum", "--window=-inf:8"), "window must be finite"),
        (("continuum", "--window=100:110"), "test function vanishes"),
        (("check", "(" * 3000 + "P" + ")" * 3000), "nesting deeper than the limit"),
        (("check", "+".join(["P"] * 3000)), "tree deeper than the limit"),
        (("verify", "--a", "1e-200"),
         "spacing a=1e-200 of the lattice p0=0,a=1e-200,n=64 is too small for the identity "
         "suite: a^2 underflows to 0"),
        (("well", "--L", "1e300", "--levels", "8"), "a^2 underflows to 0"),
    ])
    def test_degenerate_input_usage_error(self, argv, message):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Warning" not in err and "Traceback" not in err

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

    def test_seed_phase_flag(self):
        _, _, err = run_cli("eigvec", "--x", "0", "--a", "1", "--n", "5",
                            "--phi0-phase", "1.5707963267948966")
        phi0 = json.loads(err)["phi0"]
        assert phi0[0] == pytest.approx(0.0, abs=1e-12)
        assert phi0[1] == pytest.approx(1 / math.sqrt(3))


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
        assert "levels" in err

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


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "momlat", "check", "[P,P]"],
            capture_output=True, text=True, timeout=120, env=subprocess_env())
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["0", "ZERO"]

    def test_module_invocation_failure_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "momlat", "verify", "--n", "4"],
            capture_output=True, text=True, timeout=120, env=subprocess_env())
        assert proc.returncode == 2
