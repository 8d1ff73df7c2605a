import math

import numpy as np
import pytest

from breslow_lab import (
    STATUS_CONVERGED,
    STATUS_SEPARATION,
    STATUS_SINGULAR,
    fit_mple,
    log_partial_likelihood,
    score_and_information,
    score_residuals,
    validate_dataset,
)

from conftest import random_dataset
from oracles import central_diff_grad


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

    def test_information_symmetric(self):
        rng = np.random.default_rng(22)
        data = random_dataset(rng, 25, 3)
        _, info = score_and_information(data, [0.1, -0.2, 0.3])
        assert np.array_equal(info, info.T)


class TestFitMple:
    def test_hand_solved_root(self, three_point):
        fit = fit_mple(three_point, tol=1e-10)
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
        # equal a fresh evaluation at beta_hat, also when the shifted
        # covariate pushes beta'Z past the stabilizing center threshold.
        from breslow_lab import SurvivalDataset, generate_dataset, reference_truth

        base = generate_dataset(reference_truth(), 500, 3)
        data = SurvivalDataset(base.times, base.events, base.covariates + shift)
        fit = fit_mple(data)
        assert fit.converged
        if shift:
            assert np.max(data.covariates @ fit.beta_hat) > 700.0
        assert fit.log_partial_likelihood == log_partial_likelihood(data, fit.beta_hat)
        assert np.all(fit.information == score_and_information(data, fit.beta_hat)[1])


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
    # A +1100 covariate shift leaves the fit converged, but at beta_hat the raw
    # exp(beta'Z) overflows: score_residuals must raise, not return NaN.
    import warnings

    from breslow_lab import SurvivalDataset, generate_dataset, reference_truth

    base = generate_dataset(reference_truth(), 500, 3)
    data = SurvivalDataset(base.times, base.events, base.covariates + 1100.0)
    fit = fit_mple(data)
    assert fit.converged
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            score_residuals(data, fit.beta_hat)
