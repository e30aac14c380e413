"""Smoke runs of the study scripts: each exits 0 and prints its verdict."""

import subprocess
import sys
from pathlib import Path

import pytest

from cli_cases import subprocess_env

SCRIPTS = Path(__file__).parent.parent / "scripts"


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
