"""Smoke tests for the helper scripts under ``scripts/``, at toy sizes.

Each script runs in a fresh interpreter with RuntimeWarnings as errors (the
suite's own policy), from a temporary working directory.
"""

import json
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


def test_artifact_digest(tmp_path):
    runs = [run_script("artifact_digest.py", cwd=tmp_path) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert runs[1].stdout.splitlines() == lines
    labels = [line.split("  ", 1)[1] for line in lines]
    assert labels == sorted(labels)
    for label in ("fit-tied/fit.json", "influence-tied/xi_matrix.csv",
                  "decompose-p0/decomposition.csv", "rate-lab-theorem/rates.json",
                  "rate-lab-config/rates.json"):
        assert label in labels
    assert not list(tmp_path.iterdir())  # the artifacts live in a temporary directory


def test_paired_ops_tree_against_itself(tmp_path):
    src = str(SCRIPTS.parent / "src")
    proc = run_script("paired_ops.py", src, src, "--claim", "theorem", "--n", "100,200",
                      "--reps", "2", "--ops", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ops"] == 3
    assert report["artifacts_identical"] and report["mismatched_op_seeds"] == []
    ratio = report["ratio_change_over_parent"]
    assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
    assert set(report["minor_faults_per_op_median"]) == {"parent", "change"}
    assert not list(tmp_path.iterdir())


def test_paired_ops_defaults_to_the_claims_benchmark_op(tmp_path):
    src = str(SCRIPTS.parent / "src")
    proc = run_script("paired_ops.py", src, src, "--claim", "theorem", "--ops", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == ("rate-lab --claim theorem --truth reference --n 1000,8000 "
                                 "--reps 3 --seed k")
    assert report["artifacts_identical"]
    proc = run_script("paired_ops.py", src, src, "--claim", "lemma1", cwd=tmp_path)
    assert proc.returncode == 2
    assert "--n and --reps are required for --claim lemma1" in proc.stderr


def test_paired_ops_csv_mode_tree_against_itself(tmp_path):
    src = str(SCRIPTS.parent / "src")
    proc = run_script("paired_ops.py", src, src, "--csv", "--ops", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"].startswith("save_csv + load_csv of 8000 ")
    assert report["artifacts_identical"] and report["mismatched_op_seeds"] == []
    ratio = report["ratio_change_over_parent"]
    assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
    assert not list(tmp_path.iterdir())
