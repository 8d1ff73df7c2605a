import numpy as np
import pytest

from breslow_lab import (
    CoxFit,
    ExperimentValidityError,
    coupling_remainder_experiment,
    fit_loglog_slope,
    generate_dataset,
    linearization_remainder_experiment,
    no_covariate_truth,
    parse_config,
    reference_truth,
    replication_seed,
    risk_deviation_experiment,
)
import breslow_lab.experiments as experiments
from breslow_lab.quadrature import PanelAntiderivative


class TestPlumbing:
    def test_seed_split_is_documented_and_stable(self):
        a = replication_seed(7, 500, 3)
        b = replication_seed(7, 500, 3)
        assert a.entropy == b.entropy == [7, 500, 3]
        assert np.array_equal(
            np.random.default_rng(a).random(4), np.random.default_rng(b).random(4)
        )

    def test_slope_fit_recovers_power_law(self):
        ns = [100, 200, 400, 800]
        vals = [10.0 * n**-0.5 for n in ns]
        slope, se = fit_loglog_slope(ns, vals)
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_sample_sizes_must_increase(self, ref_truth):
        with pytest.raises(ValueError, match="increasing"):
            risk_deviation_experiment(ref_truth, [500, 500], 2, seed=1)

    def test_summaries_are_the_nan_functions(self):
        # Medians and quantiles of each row's kept values, bitwise those of
        # np.nanmedian / np.nanquantile along the rows.
        rng = np.random.default_rng(61)
        for _ in range(300):
            sizes, reps = rng.integers(2, 6), rng.integers(1, 40)
            table = rng.lognormal(rng.normal(-3.0, 2.0), rng.uniform(0.1, 3.0), (sizes, reps))
            table[rng.random(table.shape) < rng.uniform(0.0, 0.5)] = np.nan
            table[np.arange(sizes), rng.integers(0, reps, sizes)] = rng.random(sizes)
            (got,) = experiments._summaries(2 ** np.arange(1, sizes + 1), {"q": table}).values()
            for have, want in ((got.median, np.nanmedian(table, axis=1)),
                               (got.q10, np.nanquantile(table, 0.1, axis=1)),
                               (got.q90, np.nanquantile(table, 0.9, axis=1)),
                               (got.mean, np.nanmean(table, axis=1))):
                assert have.tobytes() == want.tobytes()

    def test_unknown_a_n_rejected(self, ref_truth):
        with pytest.raises(ValueError, match="a_n"):
            coupling_remainder_experiment(ref_truth, [100, 200], 2, seed=1, a_n="n^-9")


class TestDeterminism:
    @pytest.mark.parametrize("experiment", [
        risk_deviation_experiment,
        coupling_remainder_experiment,
        linearization_remainder_experiment,
    ], ids=["lemma1", "lemma2", "theorem"])
    def test_bit_identical_reruns(self, ref_truth, experiment):
        kw = dict(sample_sizes=[80, 160], replications=3, seed=99, grid_points=64)
        a = experiment(ref_truth, **kw)
        b = experiment(ref_truth, **kw)
        for q in a.raw:
            assert np.array_equal(a.raw[q], b.raw[q])
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("experiment", [
        coupling_remainder_experiment,
        linearization_remainder_experiment,
    ], ids=["lemma2", "theorem"])
    def test_a_size_does_not_depend_on_the_sizes_before_it(self, experiment):
        # Samples of n = 6 end before M; their replications must not leave a
        # shorter antiderivative that n = 50 then rebuilds over [0, M].
        kw = dict(replications=3, seed=54, grid_points=64)
        after_small = experiment(reference_truth(), (6, 50), **kw)
        after_large = experiment(reference_truth(), (40, 50), **kw)
        for q in after_small.raw:
            assert after_small.raw[q][1].tobytes() == after_large.raw[q][1].tobytes(), q

    def test_one_antiderivative_per_run(self, monkeypatch):
        builds = []
        init = PanelAntiderivative.__init__

        def counting(self, *args, **kwargs):
            builds.append(args[1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(PanelAntiderivative, "__init__", counting)
        res = coupling_remainder_experiment(reference_truth(), (6, 50), 3, seed=54,
                                            grid_points=64)
        assert builds == [res.M]

    def test_one_truth_query_per_theorem_replication(self, monkeypatch):
        # q and A0 are read in one query at each replication's window grid;
        # the run's build over [0, M] is the one query before them.
        queries = []
        path_integrals = type(reference_truth()).path_integrals

        def counting(self, x, columns):
            queries.append(np.size(x))
            return path_integrals(self, x, columns)

        monkeypatch.setattr(type(reference_truth()), "path_integrals", counting)
        res = linearization_remainder_experiment(reference_truth(), (60, 120), 3, seed=5,
                                                 grid_points=64)
        assert res.excluded == (0, 0)
        assert len(queries) == 1 + 2 * 3 and queries[0] == 1

    @pytest.mark.parametrize("experiment", [
        coupling_remainder_experiment, linearization_remainder_experiment,
    ], ids=["lemma2", "theorem"])
    def test_one_beta0_pass_per_replication(self, monkeypatch, experiment):
        # Each replication's split at beta0 is one _t2_terms call, the pass
        # the benchmark's linearize.t2_terms span times.
        calls = []
        t2_terms = experiments._t2_terms

        def counting(*args):
            calls.append(args[0].n)
            return t2_terms(*args)

        monkeypatch.setattr(experiments, "_t2_terms", counting)
        res = experiment(reference_truth(), (60, 120), 3, seed=5, grid_points=64)
        assert res.excluded == (0, 0)
        assert calls == [60] * 3 + [120] * 3

    def test_single_replication_defined(self, ref_truth):
        res = risk_deviation_experiment(
            ref_truth, [80, 160, 320], 1, seed=3, grid_points=64
        )
        assert np.isfinite(res.fitted_slope)
        assert np.isfinite(res.quantities["phi"].slope_stderr)

    def test_reseeding_moves_values_not_conclusion(self, ref_truth):
        kw = dict(sample_sizes=[150, 300, 600], replications=25, grid_points=64)
        a = coupling_remainder_experiment(ref_truth, seed=1001, **kw)
        b = coupling_remainder_experiment(ref_truth, seed=2002, **kw)
        assert not np.array_equal(a.raw["r_n3"], b.raw["r_n3"])
        assert abs(a.fitted_slope - b.fitted_slope) < 0.4
        assert a.fitted_slope < -0.6 and b.fitted_slope < -0.6


class TestModuleLevelMeasures:
    @pytest.mark.parametrize("experiment, measure", [
        (risk_deviation_experiment, "measure_risk_deviation"),
        (coupling_remainder_experiment, "measure_coupling_remainder"),
        (linearization_remainder_experiment, "measure_linearization_remainder"),
    ], ids=["lemma1", "lemma2", "theorem"])
    def test_measure_alone_returns_the_stored_replication(self, ref_truth, experiment,
                                                          measure):
        # The precondition of running replications in other processes: a
        # module-level measure, given only the seeded dataset, reproduces the
        # sups the replication loop stored, bit for bit.
        seed = 21
        res = experiment(ref_truth, (80, 160), 2, seed, grid_points=64)
        fixed = np.linspace(0.0, res.M, res.grid_points)
        for i, n in enumerate(res.sample_sizes):
            for r in range(res.replications):
                data = generate_dataset(ref_truth, n, replication_seed(seed, n, r))
                sups = getattr(experiments, measure)(ref_truth, data, fixed, res.M)
                stored = [res.raw[q][i, r] for q in res.raw]
                assert np.array(sups).tobytes() == np.array(stored).tobytes()


class TestExclusions:
    def test_cap_enforced(self, ref_truth, monkeypatch):
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
        with pytest.raises(ExperimentValidityError, match="excluded"):
            linearization_remainder_experiment(
                ref_truth, [60, 120], 3, seed=4, grid_points=32
            )

    def test_draw_without_events_is_excluded(self, monkeypatch):
        monkeypatch.setattr(experiments, "EXCLUSION_CAP", 1.0)
        res = risk_deviation_experiment(reference_truth(), (2, 3), 20, seed=0, grid_points=32)
        assert res.excluded == (2, 1)
        assert tuple(np.isnan(res.raw["phi"]).sum(axis=1)) == res.excluded

    def test_theorem_without_covariates_uses_beta0(self, monkeypatch):
        def no_fit(data, *args, **kwargs):
            raise AssertionError("nothing to fit without covariates")

        monkeypatch.setattr(experiments, "fit_mple", no_fit)
        res = linearization_remainder_experiment(
            no_covariate_truth(), [80, 160], 2, seed=5, grid_points=32
        )
        assert res.excluded == (0, 0)
        assert "r_n" in res.quantities
        assert np.all(np.isfinite(res.raw["r_n"]))


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(
            "# rate lab settings\n"
            "truth = reference\n"
            "claim = lemma2\n"
            "sample_sizes = 250,500,1000\n"
            "replications = 10\n"
            "a_n = 1/log n\n"
            "seed = 12\n"
            "grid_points = 256\n"
            "M_policy = 0.05\n"
        )
        opts = parse_config(cfg)
        assert opts["sample_sizes"] == (250, 500, 1000)
        assert opts["replications"] == 10
        assert opts["a_n"] == "1/log n"
        assert opts["M_policy"] == 0.05

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("seed 12\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config(cfg)
