"""Smoke tests for the helper scripts under ``scripts/``, at toy sizes.

Each script runs in a fresh interpreter with RuntimeWarnings as errors (the
suite's own policy), from a temporary working directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert "max_rel_diff" not in report
    ratio = report["ratio_change_over_parent"]
    assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
    assert set(report["minor_faults_per_op_median"]) == {"parent", "change"}
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("claim, sizes, reps", [("theorem", "1000,8000", 3),
                                                  ("lemma2", "8000,100000", 1)],
                         ids=["theorem", "lemma2"])
def test_paired_ops_defaults_to_the_claims_benchmark_op(tmp_path, claim, sizes, reps):
    src = str(SCRIPTS.parent / "src")
    proc = run_script("paired_ops.py", src, src, "--claim", claim, "--ops", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"] == (f"rate-lab --claim {claim} --truth reference --n {sizes} "
                                 f"--reps {reps} --seed k")
    assert report["artifacts_identical"]
    proc = run_script("paired_ops.py", src, src, "--claim", "lemma1", cwd=tmp_path)
    assert proc.returncode == 2
    assert "--n and --reps are required for --claim lemma1" in proc.stderr


def test_paired_ops_binds_the_workloads_to_each_tree():
    # perfbench/workloads.py imports ``breslow_lab``; loaded against a tree's
    # package under another name, it must call that package and leave
    # ``sys.modules`` as it found it.
    code = f"""
import sys, types
from pathlib import Path
sys.path.insert(0, {str(SCRIPTS)!r})
import paired_ops

package = paired_ops.load_package(Path({str(SCRIPTS.parent / "src")!r}), "other_lab")
workloads = paired_ops.load_workloads(package)
assert workloads.bl is package
assert workloads.cli is sys.modules["other_lab.cli"] is package.cli
assert "breslow_lab" not in sys.modules and "breslow_lab.cli" not in sys.modules
original = {{name: types.ModuleType(name) for name in ("breslow_lab", "breslow_lab.cli")}}
sys.modules.update(original)
workloads = paired_ops.load_workloads(package)
assert workloads.bl is package and workloads.cli is package.cli
assert all(sys.modules[name] is module for name, module in original.items())
"""
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


def test_paired_ops_analysis_mode_tree_against_itself(tmp_path):
    src = str(SCRIPTS.parent / "src")
    proc = run_script("paired_ops.py", src, src, "--analysis", "--ops", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["command"].startswith("analysis op ")
    assert report["artifacts_identical"] and report["mismatched_op_seeds"] == []
    ratio = report["ratio_change_over_parent"]
    assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
    assert not list(tmp_path.iterdir())
    proc = run_script("paired_ops.py", src, src, "--analysis", "--csv", cwd=tmp_path)
    assert proc.returncode == 2 and "not allowed with argument" in proc.stderr


def test_paired_ops_sizes_the_differences_of_two_trees(tmp_path, tmp_path_factory):
    # A copy of the package whose fit stops at a looser score tolerance: its
    # coefficients and every value built on them move a little.
    src = SCRIPTS.parent / "src"
    loose = tmp_path_factory.mktemp("loose") / "src"
    shutil.copytree(src, loose, ignore=shutil.ignore_patterns("__pycache__"))
    coxfit = loose / "breslow_lab" / "coxfit.py"
    text = coxfit.read_text()
    assert "_SCORE_TOL = 1e-10\n" in text
    coxfit.write_text(text.replace("_SCORE_TOL = 1e-10\n", "_SCORE_TOL = 1e-4\n"))
    for mode, label in ((["--analysis"], "beta_hat"), (["--claim", "theorem", "--n", "100,200",
                                                        "--reps", "2"], "reps_n200.csv:r_n")):
        proc = run_script("paired_ops.py", str(src), str(loose), *mode, "--ops", "2", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert not report["artifacts_identical"] and report["mismatched_op_seeds"]
        diffs = report["max_rel_diff"]
        assert 0 < diffs[label] < 1e-2, diffs
        assert all(v is None or 0 <= v <= 1 for v in diffs.values())
    assert not list(tmp_path.iterdir())
