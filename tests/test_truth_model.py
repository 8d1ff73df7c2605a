import math

import numpy as np
import pytest
from scipy.integrate import quad

from breslow_lab import (
    PanelAntiderivative,
    QuadratureError,
    TruncatedNormal,
    TruthModel,
    bernoulli,
    build_aggregates,
    constant_hazard,
    generate_dataset,
    no_covariate_truth,
    phi_n,
    reference_truth,
    weibull_hazard,
)
from breslow_lab.truth import Product
from oracles import gauss_antiderivative


class TestReferenceClosedForms:
    def test_phi_at_zero_is_mean_exp(self, ref_truth):
        assert ref_truth.phi(0.0) == pytest.approx(1.5, rel=1e-15)

    def test_phi_vanishes_at_horizon(self, ref_truth):
        assert ref_truth.phi(3.0) == 0.0

    def test_closed_form_everywhere(self, ref_truth):
        xs = np.linspace(0.0, 3.0, 41)
        expected = 0.5 * np.clip(1 - xs / 3, 0, None) * (np.exp(-xs) + 2 * np.exp(-2 * xs))
        assert np.allclose(ref_truth.phi(xs), expected, atol=1e-15)
        expected_d1 = 0.5 * np.clip(1 - xs / 3, 0, None) * 2 * np.exp(-2 * xs)
        assert np.allclose(ref_truth.d1(xs)[:, 0], expected_d1, atol=1e-15)

    def test_monte_carlo_phi_matches_closed_form(self, ref_truth):
        data = generate_dataset(ref_truth, 100_000, 909)
        agg = build_aggregates(data, ref_truth.beta0)
        w = np.exp(ref_truth.beta0[0] * data.covariates[:, 0])
        for x in [0.3, 0.8, 1.2, 1.6, 2.0]:
            emp = phi_n(agg, x)
            se = (w * (data.times >= x)).std(ddof=1) / math.sqrt(data.n)
            assert abs(emp - ref_truth.phi(x)) <= 4 * se

    def test_monte_carlo_d1_and_huc_match(self, ref_truth):
        data = generate_dataset(ref_truth, 100_000, 910)
        agg = build_aggregates(data, ref_truth.beta0)
        z = data.covariates[:, 0]
        w = np.exp(ref_truth.beta0[0] * z)
        from breslow_lab import d1_n

        for x in [0.3, 0.8, 1.2, 1.6, 2.0]:
            emp = d1_n(agg, x)[0]
            se = (w * z * (data.times >= x)).std(ddof=1) / math.sqrt(data.n)
            assert abs(emp - ref_truth.d1(x)[0]) <= 4 * se
        for x in [0.3, 0.8, 1.2, 1.6, 2.0]:
            ind = data.events & (data.times <= x)
            se = ind.std(ddof=1) / math.sqrt(data.n)
            assert abs(ind.mean() - ref_truth.h_uc(x)) <= 4 * se

    def test_event_fraction_matches_quadrature(self, ref_truth):
        data = generate_dataset(ref_truth, 100_000, 911)
        p_event = ref_truth.event_probability()
        se = math.sqrt(p_event * (1 - p_event) / data.n)
        assert abs(data.events.mean() - p_event) <= 3 * se

    def test_m_policy(self, ref_truth):
        m = ref_truth.default_M(0.05)
        assert ref_truth.phi(m) == pytest.approx(0.05, abs=1e-9)
        assert ref_truth.phi(m + 0.01) < 0.05

    def test_assumption_checks(self, ref_truth):
        out = ref_truth.check_assumptions()
        assert out["sup_exp_moment"] < math.inf


class TestQuadratureMachinery:
    def test_antiderivatives_match_scipy(self, ref_truth):
        for x in [0.3, 1.0, 1.7, 2.2]:
            ref = quad(lambda u: 1.0 / ref_truth.phi(u), 0, x, epsabs=1e-13, limit=400)[0]
            assert ref_truth.hazard_over_phi(x) == pytest.approx(ref, abs=1e-10)
        for x in [0.4, 1.5]:
            ref = quad(
                lambda u: ref_truth.d1(np.array([u]))[0, 0] / ref_truth.phi(u),
                0, x, epsabs=1e-13, limit=400,
            )[0]
            assert ref_truth.a0(x)[0] == pytest.approx(ref, abs=1e-10)
        ref = quad(lambda u: ref_truth.phi(u), 0, 2.5, epsabs=1e-13)[0]
        assert ref_truth.h_uc(2.5) == pytest.approx(ref, abs=1e-10)

    def test_panel_antiderivative_oscillatory(self):
        anti = PanelAntiderivative(np.cos, 0.0, 10.0, atol=1e-12)
        xs = np.linspace(0, 10, 57)
        assert np.allclose(anti(xs), np.sin(xs), atol=1e-11)

    def test_panel_nonconvergence_raises(self):
        with pytest.raises(QuadratureError):
            PanelAntiderivative(
                lambda u: 1.0 / np.abs(u - 0.5) ** 0.999,
                0.0, 1.0, atol=1e-13, max_panels=64,
            )

    def test_query_outside_range_rejected(self, ref_truth):
        anti = PanelAntiderivative(np.exp, 0.0, 1.0)
        with pytest.raises(ValueError):
            anti(2.0)

    def test_beyond_support_rejected(self, ref_truth):
        with pytest.raises(ValueError, match="support"):
            ref_truth.hazard_over_phi(3.0)


class TestChebyshevAntiderivative:
    @pytest.mark.parametrize("make_truth", [reference_truth, no_covariate_truth])
    def test_truth_functionals_match_gauss_oracle(self, make_truth):
        truth = make_truth()
        m = truth.default_M()
        xs = np.random.default_rng(2024).uniform(0.0, m, 1000)
        edges = np.linspace(0.0, m, 65)
        rate = truth.lambda0
        q_ref = gauss_antiderivative(lambda u: rate(u) / truth.phi(u), edges, xs)
        assert np.abs(truth.hazard_over_phi(xs) - q_ref).max() <= 1e-11
        h_ref = gauss_antiderivative(truth.h_uc_density, edges, xs)
        assert np.abs(truth.h_uc(xs) - h_ref).max() <= 1e-11
        a0 = truth.a0(xs)
        for j in range(truth.p):
            a_ref = gauss_antiderivative(
                lambda u: truth.d1(u)[:, j] * rate(u) / truth.phi(u), edges, xs
            )
            assert np.abs(a0[:, j] - a_ref).max() <= 1e-10

    def test_kink_matches_closed_form(self):
        c = 0.37
        anti = PanelAntiderivative(lambda u: np.abs(u - c), 0.0, 1.0)
        xs = np.append(np.random.default_rng(37).uniform(0.0, 1.0, 1000), [0.0, c, 1.0])
        exact = np.where(xs <= c, c * xs - xs**2 / 2, c**2 / 2 + (xs - c) ** 2 / 2)
        assert np.abs(anti(xs) - exact).max() <= 1e-11

    def test_steep_tanh_matches_closed_form(self):
        anti = PanelAntiderivative(lambda u: np.tanh(200.0 * (u - 0.5)), 0.0, 1.0)
        xs = np.random.default_rng(200).uniform(0.0, 1.0, 1000)
        y = 200.0 * (xs - 0.5)
        exact = (np.logaddexp(y, -y) - np.logaddexp(100.0, -100.0)) / 200.0
        assert np.abs(anti(xs) - exact).max() <= 1e-11

    def test_odd_bump_centred_in_a_panel(self):
        # Both Gauss rules are symmetric about the panel's midpoint, so they
        # agree on the zero integral of this bump; only the interpolant
        # check sees that partial-panel queries need more panels.
        m, s = 17 / 32, 0.003
        anti = PanelAntiderivative(lambda u: (u - m) * np.exp(-(((u - m) / s) ** 2)), 0.0, 1.0)
        xs = np.append(np.random.default_rng(3).uniform(0.0, 1.0, 1000),
                       np.linspace(m - 0.01, m + 0.01, 101))
        exact = -0.5 * s**2 * (np.exp(-(((xs - m) / s) ** 2)) - np.exp(-((m / s) ** 2)))
        assert np.abs(anti(xs) - exact).max() <= 1e-11

    def test_weibull_rate_non_analytic_at_zero(self):
        # rate0(u) = 1.5 sqrt(u): near 0 the interpolation error falls only
        # like sqrt(width), so a check budget that also shrank with the
        # panel would bisect past the refinement limit.
        truth = TruthModel(
            beta0=np.array([math.log(2.0)]),
            baseline=weibull_hazard(1.5),
            covariate_law=bernoulli(0.5),
            censor_upper=2.0,
        )
        xs = np.array([1e-4, 0.01, 0.5, 1.2, 1.8])
        got = truth.hazard_over_phi(xs)
        for x, value in zip(xs, got):
            ref = quad(
                lambda u: float(truth.lambda0(u)) / truth.phi(u),
                0, x, epsabs=1e-13, limit=400,
            )[0]
            assert value == pytest.approx(ref, abs=1e-10)

    def test_diagnostics(self, ref_truth):
        anti = PanelAntiderivative(
            lambda u: ref_truth.lambda0(u) / ref_truth.phi(u), 0.0, ref_truth.default_M()
        )
        assert anti.panels == anti.edges.size - 1 >= 16
        assert 0.0 <= anti.max_gauss_gap < anti.atol
        assert 0.0 <= anti.max_interp_error < anti.atol
        with pytest.raises(AttributeError):
            anti.panels = 1


class TestGeneration:
    def test_inverse_transform_formula(self, ref_truth):
        # With the covariate draw replayed, X must equal -ln(U)/exp(b0 z).
        seed = 4242
        n = 64
        rng = np.random.default_rng(seed)
        z = ref_truth.covariate_law.sample(rng, n)
        u = rng.random(n)
        expected_x = -np.log(u) / np.exp(z[:, 0] * ref_truth.beta0[0])
        data = generate_dataset(ref_truth, n, seed)
        uncensored = data.events
        assert np.array_equal(data.times[uncensored], expected_x[uncensored])
        assert np.array_equal(data.covariates, z)

    def test_same_seed_identical(self, ref_truth):
        a = generate_dataset(ref_truth, 200, 31)
        b = generate_dataset(ref_truth, 200, 31)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.events, b.events)
        assert np.array_equal(a.covariates, b.covariates)

    def test_different_seed_differs(self, ref_truth):
        a = generate_dataset(ref_truth, 200, 31)
        b = generate_dataset(ref_truth, 200, 32)
        assert not np.array_equal(a.times, b.times)

    def test_censoring_bounded_by_horizon(self, ref_truth):
        data = generate_dataset(ref_truth, 500, 77)
        assert data.times.max() <= 3.0
        assert data.times.min() > 0.0


class TestOtherDesigns:
    def test_truncated_normal_law(self):
        law = TruncatedNormal(mu=0.0, sigma=1.0, lo=-2.0, hi=2.0)
        truth = TruthModel(
            beta0=np.array([0.5]),
            baseline=weibull_hazard(1.5),
            covariate_law=law,
            censor_upper=2.0,
        )
        truth.check_assumptions()
        # atoms integrate moments to Gauss accuracy
        w, z = law.atoms()
        from scipy.stats import truncnorm

        dist = truncnorm(-2.0, 2.0)
        assert np.sum(w * z[:, 0] ** 2) == pytest.approx(dist.moment(2), abs=1e-10)
        data = generate_dataset(truth, 4000, 5)
        assert np.all((data.covariates >= -2) & (data.covariates <= 2))
        assert abs(data.covariates.mean()) < 0.1

    def test_product_law_two_coordinates(self):
        law = Product(laws=(bernoulli(0.5), TruncatedNormal(0.0, 1.0, -1.5, 1.5)))
        truth = TruthModel(
            beta0=np.array([0.3, -0.2]),
            baseline=constant_hazard(1.0),
            covariate_law=law,
            censor_upper=2.5,
        )
        data = generate_dataset(truth, 1000, 8)
        assert data.covariate_dim == 2
        # phi(0) = E e^{b'Z} factorizes for independent coordinates
        w, z = law.atoms()
        expected = np.sum(w * np.exp(z @ truth.beta0))
        assert truth.phi(0.0) == pytest.approx(expected, rel=1e-12)

    def test_weibull_baseline_inverse(self):
        base = weibull_hazard(2.0, 0.5)
        y = np.array([0.1, 1.0, 2.7])
        assert np.allclose(base.cumulative(base.inverse_cumulative(y)), y, rtol=1e-12)

    def test_no_covariate_truth_phi_is_follow_up_survival(self):
        from breslow_lab import no_covariate_truth

        truth = no_covariate_truth()
        xs = np.linspace(0, 2.9, 11)
        expected = np.exp(-xs) * (1 - xs / 3)
        assert np.allclose(truth.phi(xs), expected, atol=1e-14)
