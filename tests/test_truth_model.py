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
    d2_n,
    generate_dataset,
    no_covariate_truth,
    phi_n,
    quadrature,
    reference_truth,
    weibull_hazard,
)
from breslow_lab.truth import Discrete, Product
from oracles import gauss_antiderivative


def _one_column(f, hi, atol=1e-11):
    """The antiderivative of scalar integrand ``f`` as a one-column build."""
    return PanelAntiderivative(lambda u: f(u)[:, None], hi, atol=[atol])


def _product_truth():
    """The p = 2 design: a Bernoulli and a truncated-normal coordinate."""
    return TruthModel(
        beta0=np.array([0.3, -0.2]),
        baseline=constant_hazard(1.0),
        covariate_law=Product(laws=(bernoulli(0.5), TruncatedNormal(0.0, 1.0, -1.5, 1.5))),
        censor_upper=2.5,
    )


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
        # Z^2 = Z for the 0/1 covariate, so the Hessian is the gradient.
        assert np.allclose(ref_truth.d2(xs)[:, 0, 0], expected_d1, atol=1e-15)

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

    def test_monte_carlo_d2_matches_product_design(self):
        truth = _product_truth()
        data = generate_dataset(truth, 100_000, 911)
        agg = build_aggregates(data, truth.beta0)
        z = data.covariates
        w = np.exp(z @ truth.beta0)
        xs = np.array([0.3, 0.8, 1.2, 1.6, 2.0])
        emp, pop = d2_n(agg, xs), truth.d2(xs)
        for k, x in enumerate(xs):
            terms = (w * (data.times >= x))[:, None, None] * z[:, :, None] * z[:, None, :]
            se = terms.std(axis=0, ddof=1) / math.sqrt(data.n)
            assert np.all(np.abs(emp[k] - pop[k]) <= 4 * se)

    def test_m_policy(self, ref_truth):
        m = ref_truth.default_M(0.05)
        assert ref_truth.phi(m) == pytest.approx(0.05, abs=1e-9)
        assert ref_truth.phi(m + 0.01) < 0.05


@pytest.mark.parametrize("make_truth", [reference_truth, no_covariate_truth])
@pytest.mark.parametrize("floor", [0.05, 0.2, 0.5])
def test_default_m_is_the_last_float_at_the_floor(make_truth, floor):
    truth = make_truth()
    m = truth.default_M(floor)
    assert truth.phi(m) >= floor > truth.phi(np.nextafter(m, np.inf))


@pytest.mark.parametrize("make_truth", [reference_truth, no_covariate_truth])
def test_phi_is_batch_independent_on_the_rate_lab_designs(make_truth):
    # _event_weight_means reads phi at the event rows alone and default_M
    # bisects on scalar calls: both need the value a batch of all points gives.
    truth = make_truth()
    rng = np.random.default_rng(31)
    x = np.sort(rng.uniform(0.0, truth.censor_upper, 2000))
    batch = truth.phi(x)
    mask = rng.random(x.size) < 0.5
    assert truth.phi(x[mask]).tobytes() == batch[mask].tobytes()
    assert np.array([truth.phi(v) for v in x]).tobytes() == batch.tobytes()


@pytest.mark.parametrize("floor", [math.nan, -math.inf, math.inf])
def test_default_m_rejects_a_floor_that_is_not_finite(ref_truth, floor):
    # Every ``phi >= nan`` test is false, so a bisection would return M = 0.
    with pytest.raises(ValueError, match="finite"):
        ref_truth.default_M(floor)


@pytest.mark.parametrize("floor", [0.0, -1.0, 1e-300, 2.0])
def test_default_m_rejects_a_floor_without_a_window(ref_truth, floor):
    # A floor of 1e-300 is still met at the end of the censoring support;
    # one of 2.0 is above phi(0) = 1.5.
    with pytest.raises(ValueError, match="floor"):
        ref_truth.default_M(floor)


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: Discrete((0.0, 1.0), (1.0,)),
                 "values and probs must be nonempty and equal length", id="discrete-lengths"),
    pytest.param(lambda: Discrete((0.0, 1.0), (0.5, 0.6)),
                 "probs must be nonnegative and sum to 1", id="discrete-probs"),
    pytest.param(lambda: bernoulli(1.0), "q must be in (0, 1)", id="bernoulli"),
    pytest.param(lambda: TruncatedNormal(0.0, 1.0, 2.0, -2.0), "need lo < hi and sigma > 0",
                 id="truncated-normal"),
    pytest.param(lambda: constant_hazard(0.0), "rate must be positive", id="constant-hazard"),
    pytest.param(lambda: weibull_hazard(0.0), "shape and scale must be positive", id="weibull"),
    pytest.param(lambda: TruthModel([0.5], constant_hazard(), bernoulli(0.5), 0.0),
                 "censor_upper must be positive", id="censor-upper"),
    pytest.param(lambda: TruthModel([0.5, 0.5], constant_hazard(), bernoulli(0.5), 3.0),
                 "beta0 length must match covariate dimension", id="beta0-length"),
    pytest.param(lambda: generate_dataset(reference_truth(), 0, 1), "n must be >= 1",
                 id="generate-n0"),
])
def test_invalid_design_rejected(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


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
        anti = _one_column(np.cos, 10.0, atol=1e-12)
        xs = np.linspace(0, 10, 57)
        assert np.allclose(anti(xs, 0), np.sin(xs), atol=1e-11)

    def test_column_integrand_matches_each_column(self):
        anti = PanelAntiderivative(
            lambda u: np.column_stack([np.cos(u), np.exp(u)]), 3.0, atol=[1e-12, 1e-10]
        )
        xs = np.append(np.random.default_rng(11).uniform(0.0, 3.0, 500), [0.0, 3.0])
        both = anti(xs, slice(None))
        assert both.shape == (xs.size, 2)
        assert np.abs(both[:, 0] - np.sin(xs)).max() <= 1e-11
        assert np.abs(both[:, 1] - np.expm1(xs)).max() <= 1e-9
        # A column read alone is bitwise the same column of a joint read.
        assert anti(xs, 1).tobytes() == both[:, 1].tobytes()
        assert anti(xs, [1]).shape == (xs.size, 1)
        assert list(anti.atol) == [1e-12, 1e-10]
        assert np.all(anti.max_gauss_gap < anti.atol)
        assert np.all(anti.max_interp_error < anti.atol)

    def test_panel_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_PANELS", 64)
        with pytest.raises(QuadratureError):
            _one_column(lambda u: 1.0 / np.abs(u - 0.5) ** 0.999, 1.0, atol=1e-13)

    def test_query_outside_range_rejected(self, ref_truth):
        anti = _one_column(np.exp, 1.0)
        with pytest.raises(ValueError):
            anti(np.array([2.0]), 0)

    def test_beyond_support_rejected(self, ref_truth):
        with pytest.raises(ValueError, match="support"):
            ref_truth.hazard_over_phi(3.0)

    def test_h_uc_shares_the_support_rule(self):
        with pytest.raises(ValueError, match="support"):
            reference_truth().h_uc(3.0)

    def test_one_build_per_truth_model(self, monkeypatch):
        builds = []
        init = PanelAntiderivative.__init__

        def counting(self, *args, **kwargs):
            builds.append(args[1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(PanelAntiderivative, "__init__", counting)
        truth = reference_truth()
        m = truth.default_M()
        truth.hazard_over_phi(m)
        truth.h_uc(m)
        truth.a0(m)
        assert builds == [m]
        truth.a0(np.array([0.5, m + 0.1]))
        assert builds == [m, m + 0.1]


class TestChebyshevAntiderivative:
    @pytest.mark.parametrize("make_truth", [reference_truth, no_covariate_truth, _product_truth])
    def test_truth_functionals_match_gauss_oracle(self, make_truth):
        truth = make_truth()
        m = truth.default_M()
        xs = np.random.default_rng(2024).uniform(0.0, m, 1000)
        edges = np.linspace(0.0, m, 65)
        rate = truth.baseline.rate
        q_ref = gauss_antiderivative(lambda u: rate(u) / truth.phi(u), edges, xs)
        assert np.abs(truth.hazard_over_phi(xs) - q_ref).max() <= 1e-11
        h_ref = gauss_antiderivative(lambda u: truth.phi(u) * rate(u), edges, xs)
        assert np.abs(truth.h_uc(xs) - h_ref).max() <= 1e-11
        a0 = truth.a0(xs)
        for j in range(truth.p):
            a_ref = gauss_antiderivative(
                lambda u: truth.d1(u)[:, j] * rate(u) / truth.phi(u), edges, xs
            )
            assert np.abs(a0[:, j] - a_ref).max() <= 1e-10

    def test_kink_matches_closed_form(self):
        c = 0.37
        anti = _one_column(lambda u: np.abs(u - c), 1.0)
        xs = np.append(np.random.default_rng(37).uniform(0.0, 1.0, 1000), [0.0, c, 1.0])
        exact = np.where(xs <= c, c * xs - xs**2 / 2, c**2 / 2 + (xs - c) ** 2 / 2)
        assert np.abs(anti(xs, 0) - exact).max() <= 1e-11

    def test_steep_tanh_matches_closed_form(self):
        anti = _one_column(lambda u: np.tanh(200.0 * (u - 0.5)), 1.0)
        xs = np.random.default_rng(200).uniform(0.0, 1.0, 1000)
        y = 200.0 * (xs - 0.5)
        exact = (np.logaddexp(y, -y) - np.logaddexp(100.0, -100.0)) / 200.0
        assert np.abs(anti(xs, 0) - exact).max() <= 1e-11

    def test_odd_bump_centred_in_a_panel(self):
        # Both Gauss rules are symmetric about the panel's midpoint, so they
        # agree on the zero integral of this bump; only the interpolant
        # check sees that partial-panel queries need more panels.
        m, s = 17 / 32, 0.003
        anti = _one_column(lambda u: (u - m) * np.exp(-(((u - m) / s) ** 2)), 1.0)
        xs = np.append(np.random.default_rng(3).uniform(0.0, 1.0, 1000),
                       np.linspace(m - 0.01, m + 0.01, 101))
        exact = -0.5 * s**2 * (np.exp(-(((xs - m) / s) ** 2)) - np.exp(-((m / s) ** 2)))
        assert np.abs(anti(xs, 0) - exact).max() <= 1e-11

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
                lambda u: float(truth.baseline.rate(u)) / truth.phi(u),
                0, x, epsabs=1e-13, limit=400,
            )[0]
            assert value == pytest.approx(ref, abs=1e-10)

    def test_diagnostics(self, ref_truth):
        anti = _one_column(
            lambda u: ref_truth.baseline.rate(u) / ref_truth.phi(u), ref_truth.default_M()
        )
        assert anti.panels == anti.edges.size - 1 >= 16
        assert 0.0 <= anti.max_gauss_gap[0] < anti.atol[0]
        assert 0.0 <= anti.max_interp_error[0] < anti.atol[0]
        with pytest.raises(AttributeError):
            anti.panels = 1

    def test_truth_functionals_vanish_exactly_at_zero(self):
        # F(0) is 0.0 whatever else the call asks for and whatever the
        # antiderivative cache already holds.
        truth = reference_truth()
        for f in (truth.hazard_over_phi, truth.h_uc, truth.a0):
            alone_first = f(np.array([0.0]))
            mixed = f(np.array([0.0, 1.0]))[0]
            alone_after = f(np.array([0.0]))
            assert np.all(alone_first == 0.0)
            assert np.all(mixed == 0.0)
            assert np.all(alone_after == 0.0)


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
        # An int, a SeedSequence and a fresh Generator of one seed draw alike.
        for seed in (np.random.SeedSequence(31), np.random.default_rng(31)):
            c = generate_dataset(ref_truth, 200, seed)
            assert np.array_equal(a.times, c.times)
            assert np.array_equal(a.events, c.events)
            assert np.array_equal(a.covariates, c.covariates)
        # A Generator is advanced by the draws, so reusing it draws anew.
        rng = np.random.default_rng(31)
        first = generate_dataset(ref_truth, 200, rng)
        second = generate_dataset(ref_truth, 200, rng)
        assert not np.array_equal(first.times, second.times)

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
        # atoms integrate moments to Gauss accuracy
        w, z = law.atoms()
        from scipy.stats import truncnorm

        dist = truncnorm(-2.0, 2.0)
        assert np.sum(w * z[:, 0] ** 2) == pytest.approx(dist.moment(2), abs=1e-10)
        data = generate_dataset(truth, 4000, 5)
        assert np.all((data.covariates >= -2) & (data.covariates <= 2))
        assert abs(data.covariates.mean()) < 0.1

    def test_product_law_two_coordinates(self):
        truth = _product_truth()
        law = truth.covariate_law
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
