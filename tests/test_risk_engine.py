import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from breslow_lab import (
    ExpOverflowError,
    build_aggregates,
    d1_n,
    d2_n,
    generate_dataset,
    no_covariate_truth,
    phi_n,
    reference_truth,
    validate_dataset,
)

from conftest import random_dataset, survival_datasets
from oracles import central_diff_grad, central_diff_hessian, stacked_risk_sums

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def three_point():
    return validate_dataset([(1.0, True, [1.0]), (2.0, True, [0.0]), (3.0, True, [1.0])])


class TestBuildAggregates:
    def test_counts_at_beta_zero(self, three_point):
        agg = build_aggregates(three_point, [0.0])
        assert np.array_equal(agg.s0, [3.0, 2.0, 1.0])
        assert np.array_equal(agg.distinct_times, [1.0, 2.0, 3.0])

    def test_hand_value_at_log2(self, three_point):
        agg = build_aggregates(three_point, [np.log(2.0)])
        assert np.allclose(3.0 * phi_n(agg, [1.0, 2.0, 3.0]), [5.0, 3.0, 2.0], rtol=1e-15)

    def test_no_covariate_reduction(self):
        data = validate_dataset([(1.0, True, []), (2.0, False, []), (3.0, True, [])])
        agg = build_aggregates(data, [])
        assert agg.s1.shape == (3, 0)
        assert agg.s2.shape == (3, 0, 0)
        assert np.array_equal(agg.s0, [3.0, 2.0, 1.0])

    def test_dimension_mismatch(self, three_point):
        with pytest.raises(ValueError, match="length"):
            build_aggregates(three_point, [0.0, 1.0])

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_beta_not_finite_is_not_overflow(self, three_point, beta):
        with pytest.raises(ValueError, match=r"beta must be finite, got \[(nan|-?inf)\]"):
            build_aggregates(three_point, [beta])

    def test_overflow_is_hard_error(self):
        # Centered at the mean 800, the first row's exponent is 800.
        data = validate_dataset([(1.0, True, [1600.0]), (2.0, True, [0.0])])
        with pytest.raises(ExpOverflowError, match="800"):
            build_aggregates(data, [1.0])

    def test_explicit_center_avoids_overflow(self):
        # Centering keeps the table finite; the raw-scale risk mass is not.
        data = validate_dataset([(1.0, True, [800.0]), (2.0, True, [0.0])])
        agg = build_aggregates(data, [1.0])
        assert agg.log_scale == 400.0
        assert np.isfinite(agg.s0).all()
        with pytest.raises(ExpOverflowError):
            phi_n(agg, 1.0)

    def test_ties_grouped(self):
        data = validate_dataset(
            [(1.0, True, [0.5]), (1.0, False, [1.0]), (2.0, True, [0.0])]
        )
        agg = build_aggregates(data, [0.0])
        assert np.array_equal(agg.distinct_times, [1.0, 2.0])
        assert np.array_equal(agg.s0, [3.0, 1.0])

    def test_matches_plain_suffix_sums_general_p(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 40, 3)
        beta = rng.normal(size=3)
        agg = build_aggregates(data, beta)
        z = data.covariates - data.covariates.mean(axis=0)
        w = np.exp(z @ beta)
        for k, t in enumerate(agg.distinct_times):
            mask = data.times >= t
            assert np.isclose(agg.s0[k], w[mask].sum(), rtol=1e-13)
            assert np.allclose(agg.s1[k], (w[mask, None] * z[mask]).sum(0), rtol=1e-12, atol=1e-14)
            expected_s2 = np.einsum("n,ni,nj->ij", w[mask], z[mask], z[mask])
            assert np.allclose(agg.s2[k], expected_s2, rtol=1e-12, atol=1e-14)
            assert np.array_equal(agg.s2[k], agg.s2[k].T)


class TestPhiQueries:
    def test_counting(self, three_point):
        agg = build_aggregates(three_point, [0.0])
        assert phi_n(agg, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_weak_inequality_at_last_time(self, three_point):
        agg = build_aggregates(three_point, [np.log(2.0)])
        assert phi_n(agg, 3.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_zero_beyond_last_time(self, three_point):
        agg = build_aggregates(three_point, [0.0])
        assert phi_n(agg, 3.0 + 1e-9) == 0.0

    def test_full_mass_below_min(self, three_point):
        agg = build_aggregates(three_point, [np.log(2.0)])
        assert phi_n(agg, 0.5) == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_d1_single_survivor(self, three_point):
        agg = build_aggregates(three_point, [0.0])
        assert np.allclose(d1_n(agg, 2.5), [1.0 / 3.0], rtol=1e-15)

    def test_d1_empty_for_p0(self):
        data = validate_dataset([(1.0, True, []), (2.0, False, [])])
        agg = build_aggregates(data, [])
        assert d1_n(agg, 1.0).shape == (0,)

    def test_d2_mean_of_squares(self, three_point):
        agg = build_aggregates(three_point, [0.0])
        assert np.allclose(d2_n(agg, 0.0), [[2.0 / 3.0]], rtol=1e-15)

    @given(data=survival_datasets(max_n=20, min_p=0, max_p=2), x=st.tuples(
        st.floats(0, 9, allow_nan=False), st.floats(0, 9, allow_nan=False)))
    def test_monotone_nonincreasing(self, data, x):
        beta = np.full(data.covariate_dim, 0.3)
        agg = build_aggregates(data, beta)
        lo, hi = sorted(x)
        assert phi_n(agg, lo) >= phi_n(agg, hi)


class TestDerivativeIdentities:
    def test_d1_matches_finite_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            data = random_dataset(rng, int(rng.integers(4, 40)), int(rng.integers(1, 4)))
            beta = rng.normal(0, 0.5, size=data.covariate_dim)
            x = float(rng.uniform(0, data.times.max() * 1.1))
            agg = build_aggregates(data, beta)
            fd = central_diff_grad(
                lambda b: phi_n(build_aggregates(data, b), x), beta, h=1e-5
            )
            exact = d1_n(agg, x)
            assert np.allclose(exact, fd, rtol=1e-6, atol=1e-9)

    def test_d2_matches_finite_difference(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            data = random_dataset(rng, int(rng.integers(4, 30)), int(rng.integers(1, 3)))
            beta = rng.normal(0, 0.5, size=data.covariate_dim)
            x = float(rng.uniform(0, data.times.max()))
            agg = build_aggregates(data, beta)
            fd = central_diff_hessian(
                lambda b: phi_n(build_aggregates(data, b), x), beta, h=1e-4
            )
            assert np.allclose(d2_n(agg, x), fd, rtol=1e-5, atol=1e-7)


def _digest_tied_p3():
    """The artifact digest's 600-row input: three covariates, weekly ties."""
    spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPTS / "artifact_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.tied_p3()


@pytest.mark.parametrize("case", ["tied_p3", "reference_8000", "p0", "n_1001"])
def test_columnar_build_matches_stacked_sums_bitwise(case):
    # One contiguous Sum2 pass per column must give the bits of the old
    # single pass over the addend stack, the exp taken before the reversal.
    if case == "tied_p3":
        data, beta = _digest_tied_p3(), [0.5, 0.3, -0.2]
    elif case == "reference_8000":
        truth = reference_truth()
        data, beta = generate_dataset(truth, 8000, 1), truth.beta0
    elif case == "p0":
        data, beta = generate_dataset(no_covariate_truth(), 500, 11), []
    else:
        data = random_dataset(np.random.default_rng(8), 1001, 2)
        beta = [0.7, -0.4]
    agg = build_aggregates(data, beta)
    for got, want in zip((agg.s0, agg.s1, agg.s2), stacked_risk_sums(data, beta)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_kahan_accumulation_accuracy():
    # Suffix sums at n = 1e5 should carry far less than 1e-12 relative error;
    # compare against exact fsum suffix evaluation at a few checkpoints.
    import math

    rng = np.random.default_rng(11)
    n = 100_000
    times = rng.exponential(1.0, n) + 1e-3
    events = np.ones(n, dtype=bool)
    z = rng.normal(0, 1, (n, 1))
    from breslow_lab import SurvivalDataset

    data = SurvivalDataset(times, events, z)
    agg = build_aggregates(data, [0.4])
    w = np.exp(0.4 * (z - z.mean(axis=0))[:, 0])
    for k in [0, n // 3, 2 * n // 3, n - 1]:
        t = agg.distinct_times[k]
        exact = math.fsum(w[times >= t])
        assert abs(agg.s0[k] - exact) <= 1e-12 * exact


def test_compensated_accuracy_at_scale_general_p():
    # n = 1e5, p = 3 against exact fsum suffixes: s0 relative to its value,
    # each s1/s2 entry relative to the fsum of its absolute addends (entries
    # may cancel to near zero).  The README promises 1e-12; a compensated sum
    # is as good as twice the working precision, so ask for a few ulps, which
    # a plain running sum (about 5e-15 here) misses.
    import math

    tol = 1e-15
    rng = np.random.default_rng(12)
    n = 100_000
    times = rng.exponential(1.0, n) + 1e-3
    events = rng.random(n) < 0.7
    z = rng.normal(0, 1, (n, 3))
    from breslow_lab import SurvivalDataset

    data = SurvivalDataset(times, events, z)
    beta = np.array([0.4, -0.3, 0.2])
    agg = build_aggregates(data, beta)
    z = z - z.mean(axis=0)
    w = np.exp(z @ beta)

    def rel_error(value, terms):
        return abs(value - math.fsum(terms)) / math.fsum(np.abs(terms))

    for k in [0, 1, n // 7, n // 3, n // 2, 2 * n // 3, n - 2, n - 1]:
        mask = times >= agg.distinct_times[k]
        wk, zk = w[mask], z[mask]
        assert rel_error(agg.s0[k], wk) <= tol
        for i in range(3):
            assert rel_error(agg.s1[k, i], wk * zk[:, i]) <= tol
            for j in range(3):
                assert rel_error(agg.s2[k, i, j], wk * (zk[:, i] * zk[:, j])) <= tol


@st.composite
def addend_stacks(draw):
    """An (n, k) stack of mixed signs and magnitudes, in C or F order, whose
    running sums stay finite (the sums of a risk table or a fit always do)."""
    n, k = draw(st.integers(1, 40)), draw(st.integers(1, 7))
    values = st.floats(-1e300, 1e300, allow_nan=False) | st.sampled_from(
        [0.0, -0.0, 5e-324, 1.0, 1e16, -1e16])
    stack = np.array(draw(st.lists(values, min_size=n * k, max_size=n * k))).reshape(n, k)
    return np.asfortranarray(stack) if draw(st.booleans()) else stack


@given(stack=addend_stacks(), data=st.data())
def test_paired_running_sums_are_each_columns_own(stack, data):
    # A 2-D input is summed two columns at a time as complex pairs; each
    # column must get the bits of its own 1-D sum, at any width and layout.
    from breslow_lab.risk import _running_sums

    n = stack.shape[0]
    rows = data.draw(st.sampled_from([-1, np.arange(n), np.array([n - 1, 0, n // 2])]))
    got = _running_sums(stack, rows)
    want = np.stack([_running_sums(np.ascontiguousarray(col), rows) for col in stack.T], axis=-1)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_spread_is_the_linear_predictors():
    rng = np.random.default_rng(55)
    for p in (1, 3):
        data = random_dataset(rng, 70, p)
        beta = rng.normal(size=p)
        agg = build_aggregates(data, beta)
        assert agg.spread == np.ptp(data.sorted_view.centered @ agg.beta)


def test_compensated_totals_match_fsum_under_cancellation():
    # The fit's log-likelihood, score and information are Sum2 totals
    # (``_running_sums`` read at the last row).  Ogita, Rump & Oishi bound the
    # error by eps|s| + gamma_{n-1}^2 sum|a| (eps = 2^-53); on columns whose
    # terms cancel to a tiny total a plain sum misses that bound by far.
    import math

    from breslow_lab.risk import _running_sums

    rng = np.random.default_rng(13)
    half, cols = 2000, 4
    big = rng.normal(0, 1, (half, cols)) * 10.0 ** rng.integers(0, 16, (half, cols))
    small = rng.normal(0, 1, (half, cols))
    addends = np.concatenate([big, -big, small])
    for j in range(cols):
        addends[:, j] = rng.permutation(addends[:, j])
    n = addends.shape[0]
    eps = np.finfo(float).eps / 2
    gamma = (n - 1) * eps / (1 - (n - 1) * eps)
    totals = _running_sums(addends, -1)
    plain = np.sum(addends, axis=0)
    plain_misses = False
    for j in range(cols):
        exact = math.fsum(addends[:, j])
        bound = eps * abs(exact) + gamma**2 * math.fsum(np.abs(addends[:, j]))
        assert abs(totals[j] - exact) <= bound
        plain_misses |= abs(plain[j] - exact) > bound
    assert plain_misses


class TestTableCache:
    """One risk table per (dataset, beta), shared and read-only."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # Count the private builder's runs; the public function is the cache.
        from breslow_lab import risk

        calls = []
        original = risk._build_aggregates

        def spy(data, beta):
            calls.append(beta.copy())
            return original(data, beta)

        monkeypatch.setattr(risk, "_build_aggregates", spy)
        return calls

    def test_same_beta_returns_same_table(self, builds):
        data = random_dataset(np.random.default_rng(50), 40, 2)
        agg = build_aggregates(data, [0.3, -0.2])
        assert build_aggregates(data, np.array([0.3, -0.2])) is agg
        assert len(builds) == 1
        other = build_aggregates(data, [0.3, -0.1])
        assert other is not agg and len(builds) == 2

    def test_caller_mutation_does_not_leak(self, builds):
        data = random_dataset(np.random.default_rng(51), 40, 1)
        beta = np.array([0.3])
        agg = build_aggregates(data, beta)
        beta[0] = 0.7
        assert agg.beta[0] == 0.3
        fresh = build_aggregates(data, beta)
        assert fresh.beta[0] == 0.7 and len(builds) == 2
        cold = build_aggregates(cold_copy(data), [0.7])
        assert np.array_equal(fresh.s0, cold.s0) and np.array_equal(fresh.s1, cold.s1)

    def test_cached_arrays_are_read_only(self):
        data = random_dataset(np.random.default_rng(52), 30, 2)
        agg = build_aggregates(data, [0.1, 0.2])
        for arr in (agg.beta, agg.s0, agg.s1, agg.s2):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0

    def test_table_keeps_its_weights(self):
        data = random_dataset(np.random.default_rng(54), 60, 2)
        agg = build_aggregates(data, [0.4, -0.3])
        agg.s1  # the moment pass
        assert not agg.w.flags.writeable
        sv = data.sorted_view
        w = np.empty(data.n)
        w[sv.order] = agg.w[::-1]
        assert np.allclose(w, np.exp((data.covariates - sv.means) @ agg.beta), rtol=1e-15, atol=0)

    def test_failed_build_is_not_cached(self, builds):
        # Centered exponent 800 at beta = 1; beta = 0.1 is fine.
        data = validate_dataset([(1.0, True, [1600.0]), (2.0, True, [0.0])])
        agg = build_aggregates(data, [0.1])
        with pytest.raises(ExpOverflowError):
            build_aggregates(data, [1.0])
        with pytest.raises(ExpOverflowError):
            build_aggregates(data, [1.0])
        assert build_aggregates(data, [0.1]) is agg
        assert len(builds) == 3

    def test_analyst_path_after_fit_builds_nothing(self, builds):
        from breslow_lab import (
            a_n_curve,
            breslow_plugin,
            breslow_traditional,
            default_m_plugin,
            fit_mple,
            score_residuals,
            variance_estimate,
            xi_plugin,
        )

        data = random_dataset(np.random.default_rng(53), 200, 3)
        fit = fit_mple(data)
        assert fit.converged
        in_fit = len(builds)
        beta = fit.beta_hat
        breslow_traditional(data, beta)
        breslow_plugin(data, beta)
        a_curve = a_n_curve(data, beta)
        grid = np.linspace(0.0, default_m_plugin(data, beta), 8)
        infl = xi_plugin(data, fit, grid)
        score_residuals(data, beta)
        variance_estimate(data, infl, fit, a_curve)
        assert len(builds) == in_fit


class TestMomentPasses:
    """The moment columns ``s1``/``s2`` are built only where they are read.

    A later read of ``zbar`` or ``s2`` on a path that does not need it would
    put a moment pass back into every replication; these counts catch it.
    """

    @pytest.fixture
    def passes(self, monkeypatch):
        from breslow_lab import risk

        calls = []
        original = risk._moment_sums
        monkeypatch.setattr(risk, "_moment_sums", lambda *a: calls.append(1) or original(*a))
        return calls

    def test_lemma2_replication_runs_none(self, passes):
        from breslow_lab.experiments import coupling_remainder_experiment

        coupling_remainder_experiment(reference_truth(), (200, 400), 2, seed=3)
        assert passes == []

    def test_theorem_fit_runs_one_per_accepted_table(self, passes, monkeypatch):
        from breslow_lab import experiments

        fits = []
        original = experiments.fit_mple
        monkeypatch.setattr(experiments, "fit_mple",
                            lambda *a, **k: fits.append(original(*a, **k)) or fits[-1])
        experiments.linearization_remainder_experiment(reference_truth(), (200, 400), 2, seed=3)
        assert len(fits) == 4 and all(fit.converged for fit in fits)
        # A fit's accepted tables are its start and one per Newton step.
        assert len(passes) == sum(fit.iterations + 1 for fit in fits)

    def test_rejected_line_search_points_run_none(self, passes, monkeypatch):
        from breslow_lab import fit_mple, risk

        builds = []
        original = risk._build_aggregates
        monkeypatch.setattr(risk, "_build_aggregates",
                            lambda data, beta: builds.append(1) or original(data, beta))
        # From beta = 6 the line search halves several steps.
        fit = fit_mple(generate_dataset(reference_truth(), 300, 4), init=[6.0])
        assert fit.converged
        assert len(passes) == fit.iterations + 1 < len(builds)

    @pytest.mark.parametrize("every_later", [False, True])
    def test_moment_overflow_fails_a_trial_point(self, monkeypatch, every_later):
        """A trial point whose moment columns leave float64 is never taken.

        The first point the search would take fails, so it halves and the
        fit still reaches the unpatched optimum; with ``every_later`` every
        point after the start fails, so the search cannot move.
        """
        from breslow_lab import fit_mple, risk
        from breslow_lab.coxfit import STATUS_MAX_ITERATIONS
        from breslow_lab.risk import ExpOverflowError

        data = generate_dataset(reference_truth(), 300, 4)
        expected = fit_mple(data)
        calls = []
        original = risk._moment_sums

        def moment_sums(*args):
            calls.append(1)
            if len(calls) == 2 or (every_later and len(calls) > 1):
                raise ExpOverflowError("moment sums leave float64")
            return original(*args)

        monkeypatch.setattr(risk, "_moment_sums", moment_sums)
        fit = fit_mple(cold_copy(data))
        if every_later:
            assert fit.status == STATUS_MAX_ITERATIONS and fit.iterations == 0
            assert np.all(fit.beta_hat == 0.0) and len(calls) > 2
        else:
            assert fit.converged
            np.testing.assert_allclose(fit.beta_hat, expected.beta_hat, rtol=1e-8)


def cold_copy(data):
    """A new dataset object with the same rows: a cold cache."""
    from breslow_lab import SurvivalDataset

    return SurvivalDataset(data.times, data.events, data.covariates)
