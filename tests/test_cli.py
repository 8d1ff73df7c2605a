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
from breslow_lab import cli
from breslow_lab.cli import main


THREE_POINT_CSV = "time,event,z1\n1.0,1,1.0\n2.0,1,0.0\n3.0,1,1.0\n"
# The reference design's risk mass vanishes from t = 3 on; the last event
# falls just before.
LATE_CSV = (
    "time,event,z1\n0.3,1,0\n0.5,0,1\n0.8,1,1\n1.1,1,0\n"
    "1.6,0,1\n2.2,1,0\n2.99999999,1,1\n"
)


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

    def test_unknown_flag_rejected(self, three_point_csv, capsys):
        assert main(["fit", "--input", str(three_point_csv), "--bogus"]) == 2
        assert capsys.readouterr().err == "breslow-lab: error: unrecognized arguments: --bogus\n"


@pytest.mark.parametrize("argv,fragment", [
    pytest.param(["fit", "--input", "{p0}"], "nothing to fit", id="fit-p0"),
    pytest.param(["breslow", "--input", "{p1}", "--beta", "1,2"], "--beta has 2 entries",
                 id="breslow-beta-dimension"),
    pytest.param(["decompose", "--input", "{p1}", "--truth", "no-covariates"],
                 "dimensions differ", id="decompose-dimension"),
    pytest.param(["influence", "--n", "200", "--grid-points", "0"], "grid must be nonempty",
                 id="influence-zero-grid"),
    pytest.param(["decompose", "--input", "{late}", "--truth", "reference", "--M", "2.9999999"],
                 "quadrature did not converge", id="decompose-quadrature"),
    pytest.param(["influence", "--grid-points", "-5"],
                 "breslow-lab influence: error: argument --grid-points: "
                 "grid_points: must be non-negative, got -5", id="influence-negative-grid"),
    pytest.param(["influence", "--seed", "-1"],
                 "breslow-lab influence: error: argument --seed: "
                 "seed: must be non-negative, got -1", id="influence-negative-seed"),
    pytest.param(["decompose", "--n", "100", "--grid-points", "1048577"],
                 "breslow-lab decompose: error: argument --grid-points: "
                 "grid_points: must be at most 1048576, got 1048577", id="decompose-grid-bound"),
    pytest.param(["influence", "--n", "100", "--grid-points", "1048576", "--write-xi"],
                 "influence matrix of 100 x 1048576 entries is above the cap of 67108864",
                 id="influence-matrix-cap"),
    pytest.param(["influence", "--n", "10000000000000"],
                 "breslow-lab influence: error: argument --n: "
                 "must be an integer from 1 to 4194304, got '10000000000000'", id="influence-n-bound"),
    pytest.param(["decompose", "--n", "0"],
                 "breslow-lab decompose: error: argument --n: "
                 "must be an integer from 1 to 4194304, got '0'", id="decompose-n-zero"),
    pytest.param(["fit", "--input", "{p1}", "--bogus"], "unrecognized arguments: --bogus",
                 id="fit-unknown-flag"),
    pytest.param(["fit"], "required: --input", id="fit-without-input"),
    pytest.param(["rate-lab", "--claim", "bogus"], "argument --claim:", id="rate-lab-claim"),
])
def test_failure_exit_2_one_line_and_no_output_dir(tmp_path, capsys, argv, fragment):
    inputs = {"p0": "time,event\n1,1\n2,0\n3,1\n", "p1": THREE_POINT_CSV, "late": LATE_CSV}
    for name, text in inputs.items():
        (tmp_path / f"{name}.csv").write_text(text)
    argv = [arg.format(**{name: tmp_path / f"{name}.csv" for name in inputs}) for arg in argv]
    out = tmp_path / "out"
    assert main([*argv, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n") and fragment in err
    assert not out.exists()


def test_influence_cap_checked_before_the_draw(tmp_path, capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("rows drawn before the influence-matrix check")

    monkeypatch.setattr(cli, "generate_dataset", no_draw)
    out = tmp_path / "out"
    argv = ["influence", "--n", str(cli.MAX_SIMULATED_N), "--grid-points", "17", "--write-xi"]
    assert main([*argv, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "influence matrix of 4194304 x 17 entries is above the cap of 67108864\n")
    assert not out.exists()


def test_influence_cap_only_with_write_xi(tmp_path, capsys, monkeypatch):
    # Without --write-xi no n x grid-points matrix is built, so the cap does
    # not apply.
    monkeypatch.setattr(cli, "MAX_XI_ENTRIES", 100)
    argv = ["influence", "--n", "200", "--grid-points", "17"]
    out = tmp_path / "plain"
    assert main([*argv, "--output-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["variance.csv"]
    out = tmp_path / "xi"
    assert main([*argv, "--write-xi", "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "influence matrix of 200 x 17 entries is above the cap of 100\n")
    assert not out.exists()


BAD_EVENT_CSV = b"time,event,z1\n1.0,1,1.0\n2.0,maybe,0.0\n3.0,1,1.0\n"


@pytest.mark.parametrize("command,contents,message", [
    pytest.param("fit", BAD_EVENT_CSV, "row 2: bad event value 'maybe'", id="fit"),
    pytest.param("influence", BAD_EVENT_CSV, "row 2: bad event value 'maybe'", id="influence"),
    pytest.param("fit", b"time,event,z1\n1.0,1,1.0\n2.0,0,\xff\n",
                 "not UTF-8 text (invalid start byte)", id="not-utf-8"),
    pytest.param("breslow", b"time,event,z1\n1.0,1,1.0\n2.0,0," + b"1" * 131073 + b"\n",
                 "row 2: field larger than field limit (131072)", id="field-above-the-limit"),
])
def test_malformed_csv_exit_1_one_line(tmp_path, capsys, command, contents, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(contents)
    out = tmp_path / "out"
    assert main([command, "--input", str(path), "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"{path}: {message}\n"
    assert not out.exists()


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
            return type(est)(curve=curve)

        monkeypatch.setattr(breslow_lab.breslow, "breslow_plugin", corrupted)
        code = main(["breslow", "--input", str(three_point_csv), "--output-dir", str(tmp_path / "o")])
        assert code == 3

    def test_beta_dimension_mismatch(self, three_point_csv, tmp_path):
        code = main([
            "breslow", "--input", str(three_point_csv), "--beta", "0.1,0.2",
            "--output-dir", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_beta_not_finite(self, three_point_csv, tmp_path, capsys):
        code = main([
            "breslow", "--input", str(three_point_csv), "--beta", "nan",
            "--output-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "--beta entries must be finite\n"

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


@pytest.mark.parametrize("argv,message", [
    (["fit"], "init None: the risk table leaves the float64 range\n"),
    (["influence"], "init None: the risk table leaves the float64 range\n"),
    (["breslow", "--beta", "0"], None),
], ids=["fit", "influence", "breslow"])
def test_moment_overflow_exit_2_one_line(tmp_path, capsys, argv, message):
    # Covariates of +-1e155: every risk-set sum of exp(beta'Z) is finite,
    # but the second moments (1e310) are not.  The moment columns are built
    # after the table, so this checks that their overflow is still reported
    # before any artifact is written.
    path = tmp_path / "huge.csv"
    rows = [f"{(i + 1) / 10!r},1,{(-1) ** i * 1e155!r}" for i in range(50)]
    path.write_text("time,event,z1\n" + "\n".join(rows) + "\n")
    out = tmp_path / "o"
    code = main([*argv, "--input", str(path), "--output-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    if message is None:
        assert err.count("\n") == 1 and err.startswith("numeric overflow: ")
    else:
        assert err == message
    assert not out.exists()


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

    def test_no_covariates_has_no_coefficient_term(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "influence", "--truth", "no-covariates", "--n", "200", "--seed", "1",
            "--grid-points", "16", "--output-dir", str(out),
        ])
        assert code == 0
        _, rows = read_csv_rows(out / "variance.csv")
        assert len(rows) == 16
        assert all(r[1] == r[2] for r in rows)

    def test_separated_data_exit_2_one_line(self, tmp_path, capsys):
        path = tmp_path / "separated.csv"
        path.write_text("time,event,z1\n1,1,709\n2,1,709\n3,1,709\n4,1,0\n")
        out = tmp_path / "out"
        assert main(["influence", "--input", str(path), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == "fit failed: separation_detected\n"
        assert not out.exists()


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


    @pytest.mark.parametrize("flags", [["--grid-points", "1"], ["--M", "0"]])
    def test_zero_grid_exit_0(self, tmp_path, flags):
        out = tmp_path / "out"
        code = main([
            "decompose", "--truth", "reference", "--n", "200", "--seed", "9",
            "--output-dir", str(out), *flags,
        ])
        assert code == 0
        payload = json.loads((out / "decomposition.json").read_text())
        assert payload["identity_residual"] == 0.0
        assert all(v == 0.0 for v in payload["sup_norms"].values())

    def test_event_beyond_the_horizon_exit_2_one_line(self, tmp_path, capsys):
        # The reference design's risk mass vanishes from t = 3 on.
        path = tmp_path / "late.csv"
        path.write_text(
            "time,event,z1\n0.3,1,0\n0.5,0,1\n0.8,1,1\n1.1,1,0\n"
            "1.6,0,1\n2.2,1,0\n3.2,1,1\n"
        )
        code = main([
            "decompose", "--input", str(path), "--truth", "reference",
            "--output-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "follow-up support" in err


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

    def test_draws_without_events_exit_4_one_line(self, tmp_path, capsys):
        # Two of the twenty n = 2 draws have no events: excluded replications
        # above the cap.
        out = tmp_path / "out"
        code = main(["rate-lab", "--claim", "lemma1", "--n", "2,3", "--reps", "20",
                     "--seed", "0", "--output-dir", str(out)])
        assert code == 4
        assert capsys.readouterr().err == (
            "experiment invalid: 2/20 replications excluded at n=2; cap is 1%\n")
        assert not out.exists()

    @pytest.mark.parametrize("claim", ["lemma1", "lemma2", "theorem"])
    def test_zero_replications_exit_2_one_line(self, tmp_path, capsys, claim):
        out = tmp_path / "out"
        code = main([
            "rate-lab", "--claim", claim, "--n", "80,160", "--reps", "0",
            "--seed", "7", "--output-dir", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "replications" in err
        assert not (out / "rates.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_nan_floor_exit_2_one_line(self, tmp_path, capsys, source):
        out = tmp_path / "out"
        argv = ["rate-lab", "--claim", "lemma2", "--n", "80,160", "--reps", "2",
                "--seed", "7", "--output-dir", str(out)]
        if source == "flag":
            argv += ["--phi-floor", "nan"]
        else:
            cfg = tmp_path / "lab.cfg"
            cfg.write_text("M_policy = nan\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "finite" in err
        assert not (out / "rates.json").exists()

    @pytest.mark.parametrize("floor", ["0", "-1", "1e-300"])
    def test_floor_without_a_window_exit_2_one_line(self, tmp_path, capsys, floor):
        # 1e-300 is positive but still met at the end of the censoring support.
        out = tmp_path / "out"
        code = main(["rate-lab", "--claim", "lemma2", "--n", "200,400", "--reps", "2",
                     "--seed", "1", "--phi-floor", floor, "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "floor" in err
        assert not (out / "rates.json").exists()

    @pytest.mark.parametrize("claim", ["lemma1", "lemma2", "theorem"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unknown_a_n_exit_2_one_line(self, tmp_path, capsys, claim, source):
        out = tmp_path / "out"
        argv = ["rate-lab", "--claim", claim, "--n", "80,160", "--reps", "2",
                "--seed", "7", "--output-dir", str(out)]
        if source == "flag":
            argv += ["--a-n", "bogus"]
        else:
            cfg = tmp_path / "lab.cfg"
            cfg.write_text("a_n = bogus\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "unknown a_n choice" in err
        assert not (out / "rates.json").exists()

    def test_lemma1_ignores_a_valid_a_n(self, tmp_path):
        out = tmp_path / "out"
        code = main(["rate-lab", "--claim", "lemma1", "--n", "80,160", "--reps", "2",
                     "--seed", "7", "--grid-points", "32", "--a-n", "1/sqrt(log n)",
                     "--output-dir", str(out)])
        assert code == 0
        assert json.loads((out / "rates.json").read_text())["a_n"] == "const"

    @pytest.mark.parametrize("config, code", [
        (None, 1),
        ("bogus = 1\n", 2),
        ("replications = ten\n", 2),
    ], ids=["missing-file", "unknown-key", "bad-value"])
    def test_config_errors_exit_through_main(self, tmp_path, capsys, config, code):
        cfg = tmp_path / "lab.cfg"
        if config is not None:
            cfg.write_text(config)
        out = tmp_path / "out"
        argv = ["rate-lab", "--claim", "lemma1", "--n", "80,160", "--reps", "2",
                "--seed", "7", "--config", str(cfg), "--output-dir", str(out)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert not (out / "rates.json").exists()

    @pytest.mark.parametrize("config,message", [
        ("claim = lemma1\ntruth = bogus\n",
         "unknown truth model 'bogus'; options: ['no-covariates', 'reference']\n"),
        ("claim = bogus\n", "unknown claim 'bogus'; options: ['lemma1', 'lemma2', 'theorem']\n"),
    ], ids=["truth", "claim"])
    def test_unknown_name_in_config_exit_2_one_line(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        argv = ["rate-lab", "--n", "80,160", "--reps", "2", "--seed", "7",
                "--config", str(cfg), "--output-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_flag_value_that_does_not_parse_exit_2_one_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["rate-lab", "--claim", "lemma1", "--n", "80,160", "--reps", "ten",
                     "--seed", "7", "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and err.startswith("replications:")
        assert not (out / "rates.json").exists()

    @pytest.mark.parametrize("a_n", ["1/log n", "1/sqrt(log n)"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_sample_size_below_two_exit_2_before_any_replication(
        self, tmp_path, capsys, monkeypatch, source, a_n
    ):
        # n = 1 would run every replication and then divide by log 1.
        from breslow_lab import experiments

        def no_replications(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(experiments, "generate_dataset", no_replications)
        out = tmp_path / "out"
        argv = ["rate-lab", "--claim", "lemma2", "--reps", "2", "--seed", "3",
                "--a-n", a_n, "--output-dir", str(out)]
        if source == "flag":
            argv += ["--n", "1,2"]
        else:
            cfg = tmp_path / "lab.cfg"
            cfg.write_text("sample_sizes = 1,2\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "sample_sizes must be at least 2, got 1\n"
        assert not (out / "rates.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_sample_size_above_the_bound_exit_2_before_any_replication(
        self, tmp_path, capsys, monkeypatch, source
    ):
        from breslow_lab import experiments

        def no_replications(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(experiments, "generate_dataset", no_replications)
        out = tmp_path / "out"
        sizes = f"2,{experiments.MAX_SIMULATED_N + 1}"
        argv = ["rate-lab", "--claim", "lemma1", "--reps", "1", "--seed", "0",
                "--output-dir", str(out)]
        if source == "flag":
            argv += ["--n", sizes]
        else:
            cfg = tmp_path / "lab.cfg"
            cfg.write_text(f"sample_sizes = {sizes}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "sample_sizes must be at most 4194304, got 4194305\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_replications_above_the_bound_exit_2_before_any_replication(
        self, tmp_path, capsys, monkeypatch, source
    ):
        # The raw per-replication tables would not fit in memory.
        from breslow_lab import experiments

        def no_replications(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(experiments, "generate_dataset", no_replications)
        out = tmp_path / "out"
        argv = ["rate-lab", "--claim", "lemma1", "--n", "80,160", "--seed", "0",
                "--output-dir", str(out)]
        if source == "flag":
            argv += ["--reps", "10000000000000"]
        else:
            cfg = tmp_path / "lab.cfg"
            cfg.write_text("replications = 10000000000000\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "replications must be at most 1048576, got 10000000000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("source,key,value,rule", [
        pytest.param("flag", "seed", "-1", "must be non-negative", id="flag"),
        pytest.param("config", "seed", "-1", "must be non-negative", id="config"),
        pytest.param("flag", "grid_points", "-5", "must be non-negative", id="grid_points-flag"),
        pytest.param("config", "grid_points", "-5", "must be non-negative",
                     id="grid_points-config"),
        pytest.param("flag", "grid_points", "1048577", "must be at most 1048576",
                     id="grid_points-bound-flag"),
        pytest.param("config", "grid_points", "1048577", "must be at most 1048576",
                     id="grid_points-bound-config"),
    ])
    def test_negative_seed_exit_2_naming_the_setting(self, tmp_path, capsys, source, key,
                                                     value, rule):
        out = tmp_path / "out"
        argv = ["rate-lab", "--claim", "lemma1", "--n", "80,160", "--reps", "2",
                "--output-dir", str(out)]
        if key != "seed":
            argv += ["--seed", "3"]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), value]
        else:
            cfg = tmp_path / "lab.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"{key}: {rule}, got {value}\n"
        assert not (out / "rates.json").exists()

    def test_theorem_without_covariates(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "rate-lab", "--claim", "theorem", "--truth", "no-covariates", "--n", "80,160",
            "--reps", "2", "--seed", "7", "--grid-points", "32", "--output-dir", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "rates.json").read_text())
        assert payload["claim"] == "linearization-remainder"
        assert payload["excluded"] == [0, 0]

    def test_missing_required_options(self, tmp_path, capsys):
        out = ["--output-dir", str(tmp_path)]
        assert main(["rate-lab", "--n", "80,160", "--reps", "2", "--seed", "3", *out]) == 2
        assert capsys.readouterr().err == "missing required option claim\n"
        assert main(["rate-lab", "--claim", "lemma1", *out]) == 2
        assert capsys.readouterr().err == "missing required option sample_sizes\n"

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

    def test_flags_of_one_call_do_not_reach_the_next(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("claim = lemma1\nsample_sizes = 50,100\nreplications = 2\nseed = 4\n")

        def rate_lab(out, *flags):
            return ["rate-lab", "--config", str(cfg), "--output-dir", str(tmp_path / out), *flags]

        assert main(rate_lab("a", "--phi-floor", "0.2", "--reps", "3")) == 0
        assert main(rate_lab("b")) == 0
        alone = run_module(*rate_lab("alone"))
        assert alone.returncode == 0, alone.stderr
        rates = (tmp_path / "b" / "rates.json").read_bytes()
        assert rates == (tmp_path / "alone" / "rates.json").read_bytes()
        assert rates != (tmp_path / "a" / "rates.json").read_bytes()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("BRESLOW_LAB_OUT", str(target))
        code = main([
            "rate-lab", "--claim", "lemma1", "--n", "80,160", "--reps", "2",
            "--seed", "2", "--grid-points", "64",
        ])
        assert code == 0
        assert (target / "rates.json").exists()


def run_python(*argv):
    """``python *argv`` in a fresh interpreter on this package."""
    src = Path(breslow_lab.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120,
    )


def run_module(*argv):
    """``python -m breslow_lab.cli`` in a fresh interpreter on this package."""
    return run_python("-m", "breslow_lab.cli", *argv)


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

    def test_usage_error_exit_2_one_line(self, tmp_path):
        out = tmp_path / "out"
        proc = run_module("rate-lab", "--claim", "bogus", "--output-dir", str(out))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "argument --claim:" in proc.stderr
        assert not out.exists()

    def test_help_exit_0(self):
        proc = run_module("fit", "--help")
        assert proc.returncode == 0 and proc.stderr == ""
        assert "--input" in proc.stdout


def modules_imported(*argv):
    """The modules a fresh interpreter on this package imports while running
    ``python *argv``, read from ``-X importtime``."""
    proc = run_python("-X", "importtime", *argv)
    assert proc.returncode == 0, proc.stderr
    names = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    assert "breslow_lab" in names
    return names


def scipy_modules_imported(*argv):
    """The scipy modules among :func:`modules_imported`."""
    return [name for name in modules_imported(*argv)
            if name == "scipy" or name.startswith("scipy.")]


class TestColdStart:
    def test_import_loads_no_scipy(self):
        assert scipy_modules_imported("-c", "import breslow_lab") == []

    @pytest.mark.parametrize("claim", ["lemma1", "lemma2", "theorem"])
    def test_rate_lab_loads_no_masked_arrays(self, tmp_path, claim):
        # numpy's row-wise nanmedian and np.unique go through numpy.ma; loaded
        # mid-run, its modules would land among the run's arrays.
        names = modules_imported(
            "-m", "breslow_lab.cli", "rate-lab", "--claim", claim, "--n", "50,100",
            "--reps", "2", "--seed", "0", "--truth", "reference", "--output-dir", str(tmp_path),
        )
        assert "numpy.ma" not in names

    def test_rate_lab_loads_no_scipy(self, tmp_path):
        assert scipy_modules_imported(
            "-m", "breslow_lab.cli", "rate-lab", "--claim", "lemma1", "--n", "50,100",
            "--reps", "2", "--seed", "0", "--truth", "reference", "--output-dir", str(tmp_path),
        ) == []
