"""Smoke tests for the helper scripts under ``scripts/``, at toy sizes.

Each script runs in a fresh interpreter with RuntimeWarnings as errors (the
suite's own policy), from a temporary working directory.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv, cwd):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(SCRIPTS / name), *argv],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


def test_run_rate_lab(tmp_path):
    out = tmp_path / "out"
    proc = run_script("run_rate_lab.py", "--n", "200,400", "--reps", "3",
                      "--output-dir", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for claim in ("lemma1", "lemma2", "theorem"):
        assert (out / claim / "rates.json").exists(), claim


def test_variance_check(tmp_path):
    proc = run_script("variance_check.py", "--n", "400", "--reps", "20", "--vhat-reps", "3",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n=400 reps=20")
