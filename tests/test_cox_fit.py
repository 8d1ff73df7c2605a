import math

import numpy as np
import pytest
from scipy.optimize import minimize

from breslow_lab import (
    STATUS_CONVERGED,
    STATUS_MAX_ITERATIONS,
    STATUS_SEPARATION,
    STATUS_SINGULAR,
    SurvivalDataset,
    fit_mple,
    log_partial_likelihood,
    score_and_information,
    score_residuals,
    validate_dataset,
)

from conftest import digest_tied_p3, random_dataset
from oracles import (
    brute_force_information,
    brute_force_log_likelihood,
    brute_force_score,
    central_diff_grad,
)


@pytest.fixture
def three_point():
    return validate_dataset([(1.0, True, [1.0]), (2.0, True, [0.0]), (3.0, True, [1.0])])


class TestLogPartialLikelihood:
    def test_beta_zero_gives_log_risk_set_sizes(self, three_point):
        assert log_partial_likelihood(three_point, [0.0]) == pytest.approx(
            -math.log(6.0), rel=1e-15
        )

    def test_hand_value_at_root(self, three_point):
        beta = -math.log(2.0) / 2.0
        # Independent evaluation of the three event terms.
        expected = (
            (beta - math.log(2.0 / math.sqrt(2.0) + 1.0))
            + (0.0 - math.log(1.0 / math.sqrt(2.0) + 1.0))
            + (beta - math.log(1.0 / math.sqrt(2.0)))
        )
        assert log_partial_likelihood(three_point, [beta]) == pytest.approx(
            expected, rel=1e-14
        )

    def test_p0_rejected(self):
        data = validate_dataset([(1.0, True, [])])
        with pytest.raises(ValueError, match="covariate"):
            log_partial_likelihood(data, [])

    def test_breslow_ties_full_denominator(self):
        # Two events tied at t=1 among 3 at risk, each with the full risk set.
        data = validate_dataset(
            [(1.0, True, [1.0]), (1.0, True, [0.0]), (2.0, False, [1.0])]
        )
        ll = log_partial_likelihood(data, [0.0])
        assert ll == pytest.approx(-2.0 * math.log(3.0), rel=1e-15)


class TestScoreAndInformation:
    def test_hand_score_at_zero(self, three_point):
        score, info = score_and_information(three_point, [0.0])
        assert score[0] == pytest.approx(-1.0 / 6.0, rel=1e-14)
        assert info[0, 0] == pytest.approx(2.0 / 9.0 + 1.0 / 4.0, rel=1e-14)

    def test_score_zero_at_hand_root(self, three_point):
        score, _ = score_and_information(three_point, [-math.log(2.0) / 2.0])
        assert abs(score[0]) <= 1e-12

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            data = random_dataset(rng, int(rng.integers(5, 40)), int(rng.integers(1, 4)))
            beta = rng.normal(0, 0.5, size=data.covariate_dim)
            score, info = score_and_information(data, beta)
            fd = central_diff_grad(lambda b: log_partial_likelihood(data, b), beta, h=1e-5)
            assert np.allclose(score, fd, rtol=1e-6, atol=1e-6)
            eigs = np.linalg.eigvalsh(info)
            assert eigs.min() >= -1e-10

    @pytest.mark.parametrize("case", ["tied_p3", "tied_p3_shifted", "p1"])
    def test_information_matches_risk_set_oracle(self, case):
        # The Breslow-weighted Gram form against sum_k d_k (s2/s0 - m m')
        # from explicit risk sets: ties, a covariate shifted by 1e4, and p = 1.
        from breslow_lab import generate_dataset, reference_truth

        if case == "p1":
            data, beta = generate_dataset(reference_truth(), 400, 7), [math.log(2.0)]
        else:
            data, beta = digest_tied_p3(), [0.5, 0.3, -0.2]
            if case == "tied_p3_shifted":
                data = SurvivalDataset(data.times, data.events, data.covariates + [0.0, 1e4, 0.0])
        want = brute_force_information(data.times, data.events, data.covariates, beta)
        _, info = score_and_information(data, beta)
        assert np.all(np.abs(info - want) <= 1e-13 * np.abs(want))

    def test_information_symmetric(self):
        rng = np.random.default_rng(22)
        data = random_dataset(rng, 25, 3)
        _, info = score_and_information(data, [0.1, -0.2, 0.3])
        assert np.array_equal(info, info.T)


class TestFitMple:
    def test_hand_solved_root(self, three_point):
        fit = fit_mple(three_point)
        assert fit.status == STATUS_CONVERGED
        assert fit.beta_hat[0] == pytest.approx(-math.log(2.0) / 2.0, abs=1e-10)
        assert fit.score_norm <= 1e-10
        assert fit.iterations < 10

    def test_monotone_likelihood_is_separation(self):
        data = validate_dataset([(1.0, True, [1.0]), (2.0, True, [0.0])])
        fit = fit_mple(data)
        assert fit.status == STATUS_SEPARATION
        assert np.linalg.norm(fit.beta_hat) > 30.0
        assert fit.iterations <= 50

    def test_zero_covariate_is_singular(self):
        data = validate_dataset([(1.0, True, [0.0]), (2.0, True, [0.0])])
        fit = fit_mple(data)
        assert fit.status == STATUS_SINGULAR

    def test_constant_covariate_is_singular(self):
        data = validate_dataset([(1.0, True, [2.0]), (2.0, True, [2.0]), (3.0, False, [2.0])])
        fit = fit_mple(data)
        assert fit.status == STATUS_SINGULAR

    def test_p0_rejected(self):
        data = validate_dataset([(1.0, True, [])])
        with pytest.raises(ValueError, match="covariate"):
            fit_mple(data)

    def test_underflowed_score_with_negative_information_not_converged(self):
        # exp(beta * 709) swamps the z = 0 subject's weight: the score
        # underflows to zero while the information turns negative.
        data = validate_dataset(
            [(1.0, True, [709.0]), (2.0, True, [709.0]), (3.0, True, [709.0]), (4.0, True, [0.0])]
        )
        fit = fit_mple(data)
        assert fit.status != STATUS_CONVERGED
        assert not fit.converged

    def test_last_iterate_faces_every_stopping_test(self):
        # The rows above stop moving after 30 steps with a tiny score and a
        # wide spread: with max_iter = 30 that last iterate must be told
        # apart from an optimum just as it is with more iterations to spare.
        data = validate_dataset(
            [(1.0, True, [709.0]), (2.0, True, [709.0]), (3.0, True, [709.0]), (4.0, True, [0.0])]
        )
        fits = [fit_mple(data, max_iter=m) for m in (30, 31, 50)]
        assert [f.status for f in fits] == [STATUS_SEPARATION] * 3
        assert [f.iterations for f in fits] == [30] * 3

    def test_stops_at_the_iteration_cap(self):
        # This fit converges after 3 steps: a cap of 2 stops it one step
        # short, a cap of 3 lets it reach the default fit's bits.
        from breslow_lab import generate_dataset, reference_truth

        data = generate_dataset(reference_truth(), 300, 4)
        full = fit_mple(data)
        assert (full.status, full.iterations) == (STATUS_CONVERGED, 3)
        short = fit_mple(data, max_iter=2)
        assert (short.status, short.iterations) == (STATUS_MAX_ITERATIONS, 2)
        assert not short.converged
        enough = fit_mple(data, max_iter=3)
        assert enough.status == STATUS_CONVERGED
        assert enough.beta_hat.tobytes() == full.beta_hat.tobytes()

    def test_covariate_shift_equivariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            data = random_dataset(rng, 40, 2)
            shift = rng.normal(0, 3, size=2)
            shifted = validate_dataset(
                [
                    (t, e, z + shift)
                    for t, e, z in zip(data.times, data.events, data.covariates)
                ]
            )
            fit_a = fit_mple(data)
            fit_b = fit_mple(shifted)
            assert fit_a.status == fit_b.status
            if fit_a.status == STATUS_CONVERGED:
                assert np.allclose(fit_a.beta_hat, fit_b.beta_hat, atol=1e-8)

        # Shift laws for z1 -> z1 + s.  The fit and the score residuals do not
        # change; at a fixed beta the Breslow curve is multiplied by e^{-beta s}
        # and A_n becomes e^{-beta s} (A_n + s Lambda_n), or, where that leaves
        # float64, the call raises.
        from breslow_lab import (
            ExpOverflowError,
            SurvivalDataset,
            a_n_curve,
            breslow_traditional,
            generate_dataset,
            reference_truth,
        )

        def rel(a, b):
            return np.max(np.abs(np.asarray(a) - b) / np.abs(b))

        base = generate_dataset(reference_truth(), 2000, 3)
        fit0 = fit_mple(base)
        assert fit0.converged
        beta = fit0.beta_hat
        resid0 = score_residuals(base, beta)
        lam0 = breslow_traditional(base, beta).curve.cumulative_values
        a0 = a_n_curve(base, beta).curve.cumulative_values[:, 0]
        for s in [30.0, 1100.0, 1e4, 1e5]:
            shifted = SurvivalDataset(base.times, base.events, base.covariates + s)
            fit = fit_mple(shifted)
            assert fit.converged and fit.iterations == fit0.iterations
            assert rel(fit.beta_hat, fit0.beta_hat) <= 1e-12
            assert rel(fit.information, fit0.information) <= 1e-12
            assert rel(fit.log_partial_likelihood, fit0.log_partial_likelihood) <= 1e-12
            assert np.max(np.abs(score_residuals(shifted, fit.beta_hat) - resid0)) <= 1e-12
            factor = np.exp(-beta[0] * s)
            if s < 1100.0:
                lam = breslow_traditional(shifted, beta).curve.cumulative_values
                a_n = a_n_curve(shifted, beta).curve.cumulative_values[:, 0]
                assert rel(lam, factor * lam0) <= 1e-12
                assert rel(a_n, factor * (a0 + s * lam0)) <= 1e-12
            else:
                with pytest.raises(ExpOverflowError):
                    breslow_traditional(shifted, beta)
                with pytest.raises(ExpOverflowError):
                    a_n_curve(shifted, beta)

    def test_wide_linear_predictor_spread_converges(self):
        # A finite optimum whose linear predictor spans more than 30 (hazard
        # ratio above e^30) is a fit, not separation: the Newton step shrinks
        # with the score.  Unstandardized z ~ U(0, 100) with beta 0.5, and a
        # lab value in 0-500 with beta 0.08 beside a normal covariate.
        rng = np.random.default_rng(31)
        from breslow_lab import SurvivalDataset

        def simulate(z, beta):
            eta = z @ beta
            t = rng.exponential(np.exp(-(eta - eta.mean())))
            c = rng.exponential(2.0 * np.median(t), size=t.size)
            return SurvivalDataset(np.minimum(t, c), t <= c, z)

        cases = [
            simulate(rng.uniform(0.0, 100.0, size=(200, 1)), np.array([0.5])),
            simulate(
                np.column_stack([rng.uniform(0.0, 500.0, 300), rng.normal(size=300)]),
                np.array([0.08, 1.0]),
            ),
        ]
        for data in cases:
            fit = fit_mple(data)
            assert fit.status == STATUS_CONVERGED
            assert np.ptp(data.covariates @ fit.beta_hat) > 30.0
            score = brute_force_score(data.times, data.events, data.covariates, fit.beta_hat)
            assert np.max(np.abs(score)) <= 1e-8

    def test_init_outside_float64_range_names_init(self):
        # Centered exponent 800 at the user's starting point.
        data = validate_dataset([(1.0, True, [1600.0]), (2.0, True, [0.0])])
        with pytest.raises(ValueError, match="init"):
            fit_mple(data, init=[1.0])

    def test_converged_information_psd(self):
        rng = np.random.default_rng(24)
        data = random_dataset(rng, 60, 3)
        fit = fit_mple(data)
        assert fit.status == STATUS_CONVERGED
        assert np.linalg.eigvalsh(fit.information).min() > 0

    def test_matches_statsmodels(self):
        sm = pytest.importorskip("statsmodels.api")
        rng = np.random.default_rng(25)
        for _ in range(3):
            data = random_dataset(rng, 120, 2)
            fit = fit_mple(data)
            assert fit.converged
            res = sm.PHReg(
                data.times, data.covariates, status=data.events.astype(int), ties="breslow"
            ).fit()
            assert np.allclose(fit.beta_hat, res.params, atol=1e-8)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_matches_brute_force_maximizer(self, seed):
        # Tied p = 2 data: BFGS on the O(n^2) risk-set-mask likelihood, which
        # shares no code with the risk tables, finds the same maximizer.
        rng = np.random.default_rng(seed)
        n = 300
        z = np.column_stack([rng.random(n) < 0.5, rng.normal(size=n)]).astype(float)
        times = np.round(rng.exponential(1.0 / np.exp(z @ [0.7, -0.4])), 1) + 0.1
        events = rng.random(n) < 0.75
        assert np.unique(times[events]).size < events.sum() / 4
        fit = fit_mple(SurvivalDataset(times, events, z))
        assert fit.converged
        res = minimize(
            lambda b: -brute_force_log_likelihood(times, events, z, b),
            np.zeros(2),
            method="BFGS",
            jac=lambda b: -brute_force_score(times, events, z, b),
            options={"gtol": 1e-11},
        )
        np.testing.assert_allclose(fit.beta_hat, res.x, rtol=0, atol=1e-8)
        assert fit.log_partial_likelihood == pytest.approx(-res.fun, rel=1e-10)

    def test_stabilized_fit_with_large_exponents(self):
        # Linear predictors beyond the raw exp() range must not abort the fit.
        data = validate_dataset(
            [(1.0, True, [720.0]), (2.0, True, [719.0]), (3.0, False, [718.0]),
             (4.0, True, [717.5]), (5.0, False, [719.5])]
        )
        fit = fit_mple(data, init=[1.0], max_iter=5)
        assert np.isfinite(fit.log_partial_likelihood)

    @pytest.mark.parametrize("shift", [0.0, 1100.0])
    def test_fit_reports_fresh_likelihood_and_information(self, shift):
        # The fitter reuses each trial point's risk table; what it reports must
        # equal an evaluation at beta_hat, also when the shifted covariate
        # pushes beta'Z past 700.  On ``data`` that evaluation is a cache hit
        # on the fit's last table; on a new dataset object it is a cold build.
        from breslow_lab import SurvivalDataset, generate_dataset, reference_truth

        base = generate_dataset(reference_truth(), 500, 3)
        data = SurvivalDataset(base.times, base.events, base.covariates + shift)
        fit = fit_mple(data)
        assert fit.converged
        if shift:
            assert np.max(data.covariates @ fit.beta_hat) > 700.0
        cold = SurvivalDataset(data.times, data.events, data.covariates)
        for d in (data, cold):
            assert fit.log_partial_likelihood == log_partial_likelihood(d, fit.beta_hat)
            assert np.all(fit.information == score_and_information(d, fit.beta_hat)[1])

    @pytest.mark.parametrize("z", [1.0, 1e3, 1e5])
    def test_separation_is_independent_of_covariate_units(self, z):
        # The same two separated rows in three units of the covariate.
        from breslow_lab import SurvivalDataset

        fit = fit_mple(SurvivalDataset([1.0, 2.0], [True, True], [[z], [0.0]]))
        assert fit.status == STATUS_SEPARATION

    def test_rescaled_covariate_rescales_the_fit(self):
        # Z_j -> c Z_j gives beta_j -> beta_j / c in as many iterations.  Both
        # convergence tests are measured on the linear predictor; the score
        # tolerance is in covariate units, so c stays where it is met alike.
        from breslow_lab import SurvivalDataset

        rng = np.random.default_rng(41)
        for _ in range(4):
            data = random_dataset(rng, 80, 2)
            fit0 = fit_mple(data)
            assert fit0.converged
            for c in [1e-3, 0.1, 2.0, 10.0]:
                scale = np.array([c, 1.0])
                fit = fit_mple(SurvivalDataset(data.times, data.events, data.covariates * scale))
                assert fit.status == fit0.status
                assert fit.iterations == fit0.iterations
                np.testing.assert_allclose(fit.beta_hat * scale, fit0.beta_hat, rtol=1e-12)


class TestScoreResiduals:
    def test_sum_to_total_score(self):
        rng = np.random.default_rng(26)
        data = random_dataset(rng, 50, 2)
        beta = rng.normal(0, 0.3, 2)
        resid = score_residuals(data, beta)
        score, _ = score_and_information(data, beta)
        assert np.allclose(resid.sum(axis=0), score, atol=1e-10)

    def test_root_n_consistency_slope(self):
        # mean |beta_hat - beta0| should shrink like n^{-1/2} under the
        # reference design: log-log slope inside [-0.6, -0.4].
        from breslow_lab import generate_dataset, reference_truth
        from breslow_lab.experiments import fit_loglog_slope, replication_seed

        truth = reference_truth()
        sizes = [250, 500, 1000, 2000, 4000]
        means = []
        for n in sizes:
            gaps = []
            for r in range(60):
                data = generate_dataset(truth, n, replication_seed(424242, n, r))
                fit = fit_mple(data)
                assert fit.converged
                gaps.append(abs(fit.beta_hat[0] - truth.beta0[0]))
            means.append(np.mean(gaps))
        slope, _ = fit_loglog_slope(sizes, means)
        assert -0.6 <= slope <= -0.4

    def test_variance_tracks_information(self):
        # At the fitted coefficients the residual second moment approximates
        # the per-observation information (information equality).
        rng = np.random.default_rng(27)
        from breslow_lab import generate_dataset, reference_truth

        data = generate_dataset(reference_truth(), 20_000, rng)
        fit = fit_mple(data)
        resid = score_residuals(data, fit.beta_hat)
        emp = (resid[:, 0] ** 2).mean()
        assert emp == pytest.approx(fit.information[0, 0] / data.n, rel=0.05)


def test_score_residuals_overflow_is_an_error():
    # A +1100 covariate shift leaves the fit and the score residuals unchanged
    # (they are read off the centered table), while the raw-scale Breslow
    # curve, about e^{-760}, leaves float64: that must raise, not return 0.
    import warnings

    from breslow_lab import SurvivalDataset, breslow_traditional, generate_dataset, reference_truth

    base = generate_dataset(reference_truth(), 500, 3)
    data = SurvivalDataset(base.times, base.events, base.covariates + 1100.0)
    fit = fit_mple(data)
    assert fit.converged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resid = score_residuals(data, fit.beta_hat)
        assert np.max(np.abs(resid - score_residuals(base, fit.beta_hat))) <= 1e-12
        with pytest.raises(OverflowError):
            breslow_traditional(data, fit.beta_hat)
