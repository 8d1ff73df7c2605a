import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from breslow_lab import (
    SurvivalDataset,
    a_n_curve,
    breslow_traditional,
    build_aggregates,
    default_m_plugin,
    fit_loglog_slope,
    fit_mple,
    generate_dataset,
    no_covariate_truth,
    phi_n,
    reference_truth,
    remainder_decomposition,
    validate_dataset,
    variance_estimate,
    xi_plugin,
    xi_truth,
    xi_truth_mean,
)
from breslow_lab.experiments import replication_seed
from breslow_lab.linearize import _t2_terms, _window
from breslow_lab.quadrature import PanelAntiderivative

from oracles import quad_expectation, quad_piecewise, xi_truth_value


# Seven rows with an event at 3.2, past the reference design's horizon of 3.
HORIZON_TIMES = np.array([0.3, 0.5, 0.8, 1.1, 1.6, 2.2, 3.2])
HORIZON_EVENTS = np.array([True, False, True, True, False, True, True])
HORIZON_Z = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0])


@pytest.fixture
def p0_data():
    return validate_dataset([(1.0, True, []), (2.0, False, []), (3.0, True, [])])


class TestXiPlugin:
    def test_hand_values_p0(self, p0_data):
        infl = xi_plugin(p0_data, None, [1.0])
        assert np.allclose(infl.values[:, 0], [2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0], atol=1e-14)

    def test_column_mean_identity(self, p0_data):
        # mean_i xi_hat(x) = haz_n(x) - (1/n) sum_{events <= x} 1/phi_n(T_i),
        # which vanishes identically at the plug-in values.
        infl = xi_plugin(p0_data, None, [0.5, 1.0, 2.5, 3.0])
        agg = build_aggregates(p0_data, [])
        haz = breslow_traditional(p0_data, []).curve(infl.grid)
        ev = p0_data.events
        correction = np.array(
            [
                (1.0 / phi_n(agg, p0_data.times[ev & (p0_data.times <= x)])).sum()
                / p0_data.n
                for x in infl.grid
            ]
        )
        assert np.allclose(infl.values.mean(axis=0), haz - correction, atol=1e-14)
        assert np.allclose(infl.values.mean(axis=0), 0.0, atol=1e-14)

    def test_subject_before_first_event_is_zero(self):
        data = validate_dataset(
            [(0.2, False, [0.4]), (1.0, True, [1.0]), (1.5, True, [0.0]),
             (2.0, True, [1.0]), (2.5, False, [-1.0])]
        )
        fit = fit_mple(data)
        assert fit.converged
        infl = xi_plugin(data, fit, [0.1, 0.5, 1.5, 2.0])
        assert np.array_equal(infl.values[0], np.zeros(4))

    def test_requires_converged_fit(self):
        data = validate_dataset([(1.0, True, [1.0]), (2.0, True, [0.0])])
        fit = fit_mple(data)  # separation
        with pytest.raises(ValueError, match="converge"):
            xi_plugin(data, fit, [1.0])

    def test_grid_beyond_support_rejected(self, p0_data):
        with pytest.raises(ValueError, match="beyond"):
            xi_plugin(p0_data, None, [3.5])

    def test_requires_a_fit_with_covariates(self, ref_truth):
        data = generate_dataset(ref_truth, 100, 53)
        with pytest.raises(ValueError) as exc:
            xi_plugin(data, None, [0.5])
        assert str(exc.value) == "a converged fit is required when covariates are present"

    def test_plugin_converges_to_truth(self, ref_truth):
        # mean |xi_hat - xi| over subjects and grid should shrink ~ n^{-1/2}
        sizes = [250, 1000, 4000]
        M = ref_truth.default_M()
        grid = np.linspace(0.0, M, 24)
        gaps = []
        for n in sizes:
            per_rep = []
            for r in range(5):
                data = generate_dataset(ref_truth, n, replication_seed(606, n, r))
                fit = fit_mple(data)
                est = xi_plugin(data, fit, grid)
                tru = xi_truth(data, ref_truth, grid)
                per_rep.append(np.mean(np.abs(est.values - tru.values)))
            gaps.append(np.mean(per_rep))
        slope, _ = fit_loglog_slope(sizes, gaps)
        assert slope <= -0.4


class TestXiTruth:
    def test_zero_time_boundary(self, ref_truth):
        val = xi_truth_value(ref_truth, 0.0, True, [1.0], 1.0)
        assert val == pytest.approx(1.0 / ref_truth.phi(0.0), rel=1e-12)
        val_cens = xi_truth_value(ref_truth, 0.0, False, [1.0], 1.0)
        assert val_cens == 0.0

    def test_matrix_matches_scalar(self, ref_truth):
        data = generate_dataset(ref_truth, 15, 51)
        grid = [0.4, 1.1]
        infl = xi_truth(data, ref_truth, grid)
        for i in range(data.n):
            for k, x in enumerate(grid):
                expected = xi_truth_value(
                    ref_truth,
                    float(data.times[i]),
                    bool(data.events[i]),
                    data.covariates[i],
                    x,
                )
                assert infl.values[i, k] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_fast_mean_matches_matrix(self, ref_truth):
        data = generate_dataset(ref_truth, 300, 52)
        grid = np.linspace(0.0, ref_truth.default_M(), 33)
        infl = xi_truth(data, ref_truth, grid)
        fast = xi_truth_mean(data, ref_truth, grid)
        assert np.allclose(infl.values.mean(axis=0), fast, atol=1e-13)

    def test_one_build_when_the_grid_passes_the_data(self, monkeypatch):
        # The follow-up times (max 2.69) and a grid reaching 2.99 go to the
        # antiderivative in one query, so it is built once, over [0, 2.99].
        builds = []
        init = PanelAntiderivative.__init__

        def counting(self, *args, **kwargs):
            builds.append(args[1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(PanelAntiderivative, "__init__", counting)
        truth = reference_truth()
        data = generate_dataset(truth, 300, 5)
        assert data.times.max() < 2.99
        xi_truth(data, truth, np.linspace(0.0, 2.99, 17))
        assert builds == [2.99]

    def test_fast_mean_matches_exact_column_sums(self, ref_truth):
        # The identity mean xi = s_phi - I_v against the row-by-row matrix,
        # each column summed exactly.
        data = generate_dataset(ref_truth, 8000, 53)
        grid = np.linspace(0.0, ref_truth.default_M(), 65)
        values = xi_truth(data, ref_truth, grid).values
        exact = np.array([math.fsum(col) / data.n for col in values.T])
        assert np.max(np.abs(xi_truth_mean(data, ref_truth, grid) - exact)) <= 1e-13

    def test_event_beyond_the_horizon_rejected(self, ref_truth):
        # phi(3.2) = 0: the event contradicts the design's follow-up support.
        data = SurvivalDataset(HORIZON_TIMES, HORIZON_EVENTS, HORIZON_Z[:, None])
        with pytest.raises(ValueError, match="event at or beyond the follow-up support"):
            xi_truth_mean(data, ref_truth, np.linspace(0.0, 1.5, 9))

    @pytest.mark.parametrize("hi", [3.0, 3.5])
    def test_grid_at_or_past_the_horizon_rejected(self, ref_truth, hi):
        # The reference design's risk mass vanishes from t = 3 on.
        data = generate_dataset(ref_truth, 200, 54)
        grid = np.linspace(0.0, hi, 9)
        for functional in (xi_truth, xi_truth_mean):
            with pytest.raises(ValueError, match="support"):
                functional(data, ref_truth, grid)

    def test_no_covariate_special_case_display(self):
        # With no covariates the influence reduces to
        # -int_0^{x^t} dH_uc/(1-H)^2 + {t<=x}/(1-H(t)).
        truth = no_covariate_truth()

        def follow_up_cdf(u):
            return 1.0 - math.exp(-u) * (1.0 - u / 3.0)

        def h_uc_density(u):
            return math.exp(-u) * (1.0 - u / 3.0)

        for t, delta, x in [(0.7, True, 1.2), (1.5, False, 1.0), (0.9, True, 0.4)]:
            direct_integral = quad(
                lambda u: h_uc_density(u) / (1.0 - follow_up_cdf(u)) ** 2,
                0.0,
                min(t, x),
                epsabs=1e-12,
            )[0]
            direct = -direct_integral
            if delta and t <= x:
                direct += 1.0 / (1.0 - follow_up_cdf(t))
            assert xi_truth_value(truth, t, delta, [], x) == pytest.approx(direct, abs=1e-9)

    def test_centered_under_truth_by_quadrature(self, ref_truth):
        for x in [0.5, 1.5]:
            mean = quad_expectation(
                ref_truth,
                lambda t, d, z, x=x: xi_truth_value(ref_truth, t, d, z, x),
                points=[x],
            )
            assert abs(mean) < 1e-6


class TestVarianceEstimate:
    def test_p0_reduces_to_xi_only(self, p0_data):
        infl = xi_plugin(p0_data, None, [1.0, 2.0])
        curves = variance_estimate(p0_data, infl)
        assert np.array_equal(curves.total, curves.xi_only)

    def test_n1_undefined(self):
        data = validate_dataset([(1.0, True, [])])
        infl = xi_plugin(data, None, [1.0])
        with pytest.raises(ValueError, match="n < 2"):
            variance_estimate(data, infl)

    def test_requires_fit_and_curve_with_covariates(self, ref_truth):
        data = generate_dataset(ref_truth, 100, 53)
        fit = fit_mple(data)
        infl = xi_plugin(data, fit, [0.5])
        with pytest.raises(ValueError, match="required"):
            variance_estimate(data, infl)

    @pytest.mark.parametrize("case,message", [
        pytest.param("no curve", "a nonempty sensitivity curve is required with covariates",
                     id="no-curve"),
        pytest.param("singular information", "singular information", id="singular"),
    ])
    def test_covariate_inputs_rejected(self, ref_truth, case, message):
        data = generate_dataset(ref_truth, 100, 53)
        fit = fit_mple(data)
        infl = xi_plugin(data, fit, [0.5])
        if case == "no curve":
            a_curve = None
        else:
            a_curve = a_n_curve(data, fit.beta_hat)
            fit = dataclasses.replace(fit, information=np.zeros((1, 1)))
        with pytest.raises(ValueError) as exc:
            variance_estimate(data, infl, fit, a_curve)
        assert str(exc.value) == message

    def test_reads_the_factors_and_builds_no_matrix(self, ref_truth):
        data = generate_dataset(ref_truth, 500, 55)
        fit = fit_mple(data)
        infl = xi_plugin(data, fit, np.linspace(0.0, 1.5, 9))
        curves = variance_estimate(data, infl, fit, a_n_curve(data, fit.beta_hat))
        assert "values" not in vars(infl)
        want = infl.values.var(axis=0, ddof=1) / data.n
        assert np.array_equal(curves.xi_only == 0, want == 0)
        nz = want != 0
        assert np.max(np.abs(curves.xi_only[nz] - want[nz]) / want[nz]) <= 1e-12

    def test_total_exceeds_xi_only_under_reference(self, ref_truth):
        data = generate_dataset(ref_truth, 2000, 54)
        fit = fit_mple(data)
        grid = np.array([0.5, 1.0, 1.5])
        infl = xi_plugin(data, fit, grid)
        curves = variance_estimate(data, infl, fit, a_n_curve(data, fit.beta_hat))
        assert np.all(curves.total > curves.xi_only)


class TestDecomposition:
    def test_identity_residual_small(self, ref_truth):
        data = generate_dataset(ref_truth, 500, 55)
        fit = fit_mple(data)
        grid = np.linspace(0.0, ref_truth.default_M(), 101)
        report = remainder_decomposition(data, fit, ref_truth, grid)
        assert report.identity_residual() <= 1e-12

    def test_mean_xi_equals_bn_plus_cn(self, ref_truth):
        data = generate_dataset(ref_truth, 400, 56)
        fit = fit_mple(data)
        grid = np.linspace(0.0, ref_truth.default_M(), 64)
        report = remainder_decomposition(data, fit, ref_truth, grid)
        assert np.allclose(report.mean_xi, report.b_n + report.c_n, atol=1e-11)

    def test_mean_xi_is_xi_truth_mean(self, ref_truth):
        data = generate_dataset(ref_truth, 400, 58)
        grid = np.linspace(0.0, ref_truth.default_M(), 64)
        report = remainder_decomposition(data, fit_mple(data), ref_truth, grid)
        assert report.mean_xi.tobytes() == xi_truth_mean(data, ref_truth, grid).tobytes()
        ulp = np.spacing(np.max(np.abs(ref_truth.cum_hazard0(grid))))
        assert np.max(np.abs(report.mean_xi - (report.b_n + report.c_n))) <= 4 * ulp

    def test_phi_evaluated_once_per_event_row(self, ref_truth, monkeypatch):
        data = generate_dataset(ref_truth, 400, 59)
        fit = fit_mple(data)
        grid = np.linspace(0.0, ref_truth.default_M(), 64)
        # Build the antiderivatives first: their panels evaluate phi too.
        ref_truth.hazard_over_phi(grid)
        ref_truth.h_uc(grid)
        ref_truth.a0(grid)
        points = []
        phi = type(ref_truth).phi

        def logged(self, x):
            points.append(np.atleast_1d(np.asarray(x, dtype=float)).copy())
            return phi(self, x)

        monkeypatch.setattr(type(ref_truth), "phi", logged)
        remainder_decomposition(data, fit, ref_truth, grid)
        seen = np.concatenate(points)
        event_times = np.sort(data.times[data.events])
        assert np.array_equal(np.sort(seen[np.isin(seen, event_times)]), event_times)

    def test_forcing_beta0_zeroes_t_n1(self, ref_truth):
        data = generate_dataset(ref_truth, 300, 57)
        grid = np.linspace(0.0, ref_truth.default_M(), 33)
        report = remainder_decomposition(
            data, None, ref_truth, grid, beta_hat=ref_truth.beta0
        )
        assert np.array_equal(report.t_n1, np.zeros_like(grid))
        assert np.allclose(report.r_n, report.r_n3 + report.r_n4, atol=1e-11)

    def test_p0_needs_no_fit(self):
        # Without covariates the gate gives beta_hat = beta0 = [], so fit=None
        # is the forced-beta0 report bit for bit.
        truth = no_covariate_truth()
        data = generate_dataset(truth, 300, 60)
        grid = np.linspace(0.0, truth.default_M(), 33)
        got = remainder_decomposition(data, None, truth, grid)
        want = remainder_decomposition(data, None, truth, grid, beta_hat=truth.beta0)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert a.tobytes() == b.tobytes() and a.shape == b.shape, field.name
            else:
                assert a == b, field.name

    def test_censored_row_at_the_horizon(self, ref_truth):
        # phi(3) = 0 at the reference horizon; only event rows divide by phi.
        raw = generate_dataset(ref_truth, 200, 61)
        times, events = raw.times.copy(), raw.events.copy()
        times[0], events[0] = ref_truth.censor_upper, False
        data = SurvivalDataset(times, events, raw.covariates)
        grid = np.linspace(0.0, ref_truth.default_M(), 33)
        report = remainder_decomposition(data, fit_mple(data), ref_truth, grid)
        assert np.isfinite(report.r_n).all()
        assert report.identity_residual() <= 1e-12

    def test_zero_grid_gives_zero_terms(self, ref_truth):
        # Every term vanishes at x = 0; the grid [0] has no risk-set piece.
        data = generate_dataset(ref_truth, 200, 60)
        report = remainder_decomposition(data, fit_mple(data), ref_truth, [0.0])
        for name in ("t_n1", "t_n2", "b_n", "c_n", "r_n3", "r_n4", "r_n", "mean_xi", "beta_term"):
            assert np.array_equal(getattr(report, name), [0.0]), name
        assert report.identity_residual() == 0.0

    def test_terms_match_scipy_quadrature_oracle(self, ref_truth):
        # Brute-force the population-measure integrals behind b_n, r_n3, r_n4
        # with adaptive quadrature split at the data's jump points.
        data = generate_dataset(ref_truth, 12, 58)
        agg = build_aggregates(data, ref_truth.beta0)
        grid = np.array([0.4, 0.9, 1.3])
        terms = _t2_terms(data, ref_truth, _window(ref_truth, data, ("q", "H_uc"), grid))
        breaks = data.times.tolist()

        def phi_emp(u):
            return phi_n(agg, float(u))

        for k, x in enumerate(grid):
            b_oracle = quad_piecewise(
                lambda u: (ref_truth.phi(u) - phi_emp(u)) / ref_truth.phi(u),
                0.0, x, breaks,
            )
            assert terms["b_n"][k] == pytest.approx(b_oracle, abs=1e-9)
            r4_oracle = quad_piecewise(
                lambda u: (ref_truth.phi(u) - phi_emp(u)) ** 2
                / (ref_truth.phi(u) * phi_emp(u)),
                0.0, x, breaks,
            )
            assert terms["r_n4"][k] == pytest.approx(r4_oracle, abs=1e-9)
            # r_n3 = empirical part - population part
            ev = data.events & (data.times <= x)
            empirical = (
                np.sum(1.0 / phi_n(agg, data.times[ev]))
                - np.sum(1.0 / ref_truth.phi(data.times[ev]))
            ) / data.n
            pop = quad_piecewise(
                lambda u: (1.0 / phi_emp(u) - 1.0 / ref_truth.phi(u)) * ref_truth.phi(u),
                0.0, x, breaks,
            )
            assert terms["r_n3"][k] == pytest.approx(empirical - pop, abs=1e-9)

    def test_remainder_shrinks_by_factor_near_four(self, ref_truth):
        M = ref_truth.default_M()
        fixed = np.linspace(0.0, M, 513)

        def median_sup(n, reps):
            sups = []
            for r in range(reps):
                data = generate_dataset(ref_truth, n, replication_seed(500101, n, r))
                fit = fit_mple(data)
                t = data.sorted_view.distinct_times
                grid = np.unique(np.concatenate([fixed, t[t <= M]]))
                report = remainder_decomposition(data, fit, ref_truth, grid)
                sups.append(report.sup_norms["r_n"])
            return float(np.median(sups))

        shrink = median_sup(500, 40) / median_sup(2000, 40)
        assert 3.0 <= shrink <= 5.5

    def test_grid_validation(self, ref_truth):
        data = generate_dataset(ref_truth, 50, 59)
        fit = fit_mple(data)
        with pytest.raises(ValueError, match="support|beyond"):
            remainder_decomposition(data, fit, ref_truth, [3.2])
        with pytest.raises(ValueError, match="converge"):
            bad = fit_mple(
                validate_dataset([(1.0, True, [1.0]), (2.0, True, [0.0])])
            )
            remainder_decomposition(data, bad, ref_truth, [0.5])


def test_default_m_plugin_below_the_floor_everywhere():
    # A constant covariate at beta = -10 leaves risk mass e^-10 at every time.
    data = validate_dataset([(1.0, True, [1.0]), (2.0, True, [1.0])])
    with pytest.raises(ValueError) as exc:
        default_m_plugin(data, [-10.0])
    assert str(exc.value) == "empirical risk mass is below the floor everywhere"
