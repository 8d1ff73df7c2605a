"""Smoke test of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs briefly in both modes and must report exactly the metrics
``BENCHMARK.json`` names, with their units; the correctness gate must reject
a corrupted reference; and without the package the benchmark must exit with
an error and print no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()
import workloads  # noqa: E402

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_compare_tolerates_last_bits_only():
    ref = {"a": [1.0, 2.5e-4], "n": 3}
    assert workloads.compare({"a": [1.0 + 1e-15, 2.5e-4 * (1 + 1e-12)], "n": 3}, ref, 1e-6, 1e-10) == []
    assert workloads.compare({"a": [1.0, 2.6e-4], "n": 3}, ref, 1e-6, 1e-10)
    assert workloads.compare({"a": [1.0, float("nan")], "n": 3}, ref, 1e-6, 1e-10)
    assert workloads.compare({"a": [1.0, 2.5e-4], "n": 4}, ref, 1e-6, 1e-10)


def _bench_copy(tmp_path, with_src: bool) -> Path:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_src:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def test_gate_rejects_corrupted_reference(tmp_path):
    root = _bench_copy(tmp_path, with_src=True)
    name = "theorem-ref-n8000"
    path = root / "perfbench" / "refs" / f"{name}.json"
    refs = json.loads(path.read_text())
    for ref in refs.values():
        ref["quantities"]["r_n"]["mean_sup"][1] *= 1.001
    path.write_text(json.dumps(refs))
    proc = bench("--workload", name, "--seed", "1", "--seconds", "0.1", "--trace", "0", cwd=root)
    out = last_json(proc.stdout)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"]
    assert "mean_sup" in proc.stderr


def test_fails_without_the_package(tmp_path):
    root = _bench_copy(tmp_path, with_src=False)
    proc = bench("--workload", "theorem-ref-n8000", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=root)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
