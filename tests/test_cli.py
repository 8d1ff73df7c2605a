import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import breslow_lab.breslow
from breslow_lab.cli import main


THREE_POINT_CSV = "time,event,z1\n1.0,1,1.0\n2.0,1,0.0\n3.0,1,1.0\n"


@pytest.fixture
def three_point_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(THREE_POINT_CSV)
    return path


def read_csv_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(c) for c in row] for row in reader]
    return header, rows


class TestFitCommand:
    def test_hand_example(self, three_point_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["fit", "--input", str(three_point_csv), "--output-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "fit.json").read_text())
        assert payload["status"] == "converged"
        assert payload["beta_hat"][0] == pytest.approx(-0.3465736, abs=1e-6)
        assert payload["n"] == 3 and payload["p"] == 1
        assert len(payload["information"]) == 1

    def test_constant_covariate_exit_2(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("time,event,z1\n1.0,1,2.0\n2.0,1,2.0\n3.0,0,2.0\n")
        out = tmp_path / "out"
        code = main(["fit", "--input", str(path), "--output-dir", str(out)])
        assert code == 2
        payload = json.loads((out / "fit.json").read_text())
        assert payload["status"] == "singular_information"

    def test_separated_data_exit_2(self, tmp_path):
        path = tmp_path / "separated.csv"
        path.write_text("time,event,z1\n1,1,709\n2,1,709\n3,1,709\n4,1,0\n")
        out = tmp_path / "out"
        code = main(["fit", "--input", str(path), "--output-dir", str(out)])
        assert code == 2
        assert json.loads((out / "fit.json").read_text())["status"] != "converged"

    def test_missing_file_exit_1(self, tmp_path):
        code = main(["fit", "--input", str(tmp_path / "nope.csv")])
        assert code == 1

    def test_missing_input_flag(self):
        assert main(["fit"]) == 2

    def test_unknown_flag_rejected(self, three_point_csv):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", str(three_point_csv), "--bogus"])
        assert exc.value.code == 2


class TestBreslowCommand:
    def test_hand_values(self, three_point_csv, tmp_path):
        out = tmp_path / "out"
        code = main(["breslow", "--input", str(three_point_csv), "--output-dir", str(out)])
        assert code == 0
        header, rows = read_csv_rows(out / "breslow.csv")
        assert header == ["x", "cum_hazard"]
        assert [r[0] for r in rows] == [1.0, 2.0, 3.0]
        expected = [math.sqrt(2) - 1, 1.0, 1 + math.sqrt(2)]
        assert np.allclose([r[1] for r in rows], expected, atol=1e-7)
        a_header, a_rows = read_csv_rows(out / "a_n.csv")
        assert a_header == ["x", "a1"]

    def test_nelson_aalen_with_beta_zero_p0(self, tmp_path):
        path = tmp_path / "p0.csv"
        path.write_text("time,event\n1.0,1\n2.0,0\n3.0,1\n")
        out = tmp_path / "out"
        code = main(["breslow", "--input", str(path), "--beta", "", "--output-dir", str(out)])
        assert code == 0
        _, rows = read_csv_rows(out / "breslow.csv")
        assert np.allclose([r[1] for r in rows], [1 / 3, 4 / 3], atol=1e-12)
        assert not (out / "a_n.csv").exists()

    def test_fault_injection_exit_3(self, three_point_csv, tmp_path, monkeypatch):
        real = breslow_lab.breslow.breslow_plugin

        def corrupted(data, beta):
            est = real(data, beta)
            curve = type(est.curve)(
                est.curve.jump_times, est.curve.cumulative_values * 1.001
            )
            return type(est)(
                curve=curve, beta_used=est.beta_used, max_follow_up=est.max_follow_up
            )

        monkeypatch.setattr(breslow_lab.breslow, "breslow_plugin", corrupted)
        code = main(["breslow", "--input", str(three_point_csv), "--output-dir", str(tmp_path / "o")])
        assert code == 3

    def test_beta_dimension_mismatch(self, three_point_csv, tmp_path):
        code = main([
            "breslow", "--input", str(three_point_csv), "--beta", "0.1,0.2",
            "--output-dir", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_overflow_exit_2_one_line(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("time,event,z1\n1.0,1,800.0\n2.0,1,0.0\n")
        code = main([
            "breslow", "--input", str(path), "--beta", "1",
            "--output-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "overflow" in err


class TestInfluenceCommand:
    def test_variance_artifact_parses(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "influence", "--truth", "reference", "--n", "400", "--seed", "5",
            "--grid-points", "32", "--output-dir", str(out),
        ])
        assert code == 0
        header, rows = read_csv_rows(out / "variance.csv")
        assert header == ["x", "variance", "variance_xi_only"]
        assert len(rows) == 32
        assert all(r[1] >= r[2] >= 0 for r in rows[1:])

    def test_xi_matrix_export(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "influence", "--truth", "reference", "--n", "50", "--seed", "5",
            "--grid-points", "8", "--write-xi", "--output-dir", str(out),
        ])
        assert code == 0
        header, rows = read_csv_rows(out / "xi_matrix.csv")
        assert len(rows) == 50
        assert len(header) == 9


class TestDecomposeCommand:
    def test_artifacts_parse(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "decompose", "--truth", "reference", "--n", "300", "--seed", "9",
            "--grid-points", "40", "--output-dir", str(out),
        ])
        assert code == 0
        header, rows = read_csv_rows(out / "decomposition.csv")
        assert header[:3] == ["x", "t_n1", "t_n2"]
        assert len(rows) == 40
        payload = json.loads((out / "decomposition.json").read_text())
        assert payload["identity_residual"] < 1e-10
        assert payload["seed"] == 9
        t_n2 = np.array([r[2] for r in rows])
        parts = np.array([r[3] + r[4] + r[5] + r[6] for r in rows])
        assert np.allclose(t_n2, parts, atol=1e-10)


class TestRateLabCommand:
    def test_smoke_and_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "rate-lab", "--claim", "lemma1", "--n", "80,160", "--reps", "3",
            "--seed", "7", "--grid-points", "64", "--output-dir", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "rates.json").read_text())
        assert payload["seed"] == 7
        assert payload["sample_sizes"] == [80, 160]
        assert "fitted_slope" in payload
        for n in (80, 160):
            header, rows = read_csv_rows(out / f"reps_n{n}.csv")
            assert header[0] == "replication"
            assert len(rows) == 3

    def test_config_file_with_flag_overrides(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(
            "claim = lemma1\nsample_sizes = 80,160\nreplications = 2\nseed = 3\n"
            "grid_points = 64\n"
        )
        out = tmp_path / "out"
        code = main(["rate-lab", "--config", str(cfg), "--seed", "8", "--output-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "rates.json").read_text())
        assert payload["seed"] == 8

    def test_missing_required_options(self, tmp_path):
        assert main(["rate-lab", "--claim", "lemma1", "--output-dir", str(tmp_path)]) == 2

    def test_claim_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(
            "claim = theorem\nsample_sizes = 80,160\nreplications = 2\nseed = 3\n"
            "grid_points = 64\n"
        )
        out = tmp_path / "out"
        code = main(["rate-lab", "--config", str(cfg), "--claim", "lemma1",
                     "--output-dir", str(out)])
        assert code == 0
        payload = json.loads((out / "rates.json").read_text())
        assert payload["claim"] == "risk-deviation"

    def test_exclusion_cap_exit_4(self, tmp_path, monkeypatch):
        import breslow_lab.experiments as experiments
        from breslow_lab import CoxFit

        def always_fails(data, *args, **kwargs):
            return CoxFit(
                beta_hat=np.zeros(1),
                log_partial_likelihood=0.0,
                score_norm=1.0,
                information=np.eye(1),
                iterations=50,
                status="max_iterations",
            )

        monkeypatch.setattr(experiments, "fit_mple", always_fails)
        code = main([
            "rate-lab", "--claim", "theorem", "--n", "60,120", "--reps", "2",
            "--seed", "1", "--grid-points", "32", "--output-dir", str(tmp_path / "o"),
        ])
        assert code == 4

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("BRESLOW_LAB_OUT", str(target))
        code = main([
            "rate-lab", "--claim", "lemma1", "--n", "80,160", "--reps", "2",
            "--seed", "2", "--grid-points", "64",
        ])
        assert code == 0
        assert (target / "rates.json").exists()


def run_module(*argv):
    """``python -m breslow_lab.cli`` in a fresh interpreter on this package."""
    src = Path(breslow_lab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "breslow_lab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestModuleInvocation:
    def test_fit_writes_artifact(self, three_point_csv, tmp_path):
        out = tmp_path / "out"
        proc = run_module("fit", "--input", str(three_point_csv), "--output-dir", str(out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "fit.json").read_text())["status"] == "converged"

    def test_overflowing_risk_sum_exit_2_one_line(self, tmp_path):
        # Every beta'Z is within exp() range, but the risk-set sums are not.
        path = tmp_path / "sums.csv"
        path.write_text("time,event,z1\n1,1,709\n2,1,709\n3,1,709\n4,1,0\n")
        out = tmp_path / "out"
        proc = run_module("breslow", "--input", str(path), "--beta", "1", "--output-dir", str(out))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "overflow" in proc.stderr
        assert not (out / "breslow.csv").exists()
