import numpy as np
import pytest

from breslow_lab import (
    ExpOverflowError,
    SurvivalDataset,
    a_n_curve,
    breslow_traditional,
    fit_mple,
    score_residuals,
    variance_estimate,
    xi_plugin,
)
from breslow_lab import linearize
from breslow_lab.linearize import _BLOCK_ROWS

from oracles import brute_force_post_fit, exact_xi_plugin

RTOL = 1e-10
ATOL = 1e-13


def _post_fit_case(times, events, covs):
    data = SurvivalDataset(times, events, covs)
    fit = fit_mple(data)
    assert fit.converged
    assert np.unique(times[events]).size < events.sum()
    grid = np.array([0.0, 0.35, 1.0, 1.6, 2.5, float(times.max())])
    expected = brute_force_post_fit(times, events, covs, fit.beta_hat, grid)
    return data, fit, grid, expected


@pytest.fixture(scope="module")
def tied_cases():
    # p = 2, times rounded to a coarse grid so that most event times are tied
    # and events share times with censored rows; the first dataset ends on a
    # censored-only time.
    rng = np.random.default_rng(31)
    n = 60
    times = np.round(rng.exponential(1.5, n), 1) + 0.1
    events = rng.random(n) < 0.7
    covs = rng.normal(0.0, 1.0, size=(n, 2))
    cases = {"tied": _post_fit_case(times, events, covs)}
    # The two smallest times are censored only, so every running sum over
    # the distinct follow-up times starts with zero increments.
    rng = np.random.default_rng(7)
    n = 40
    times = np.round(rng.exponential(1.5, n), 1) + 0.3
    events = rng.random(n) < 0.7
    times[[5, 17]] = [0.2, 0.1]
    events[[5, 17]] = False
    covs = rng.normal(0.0, 1.0, size=(n, 2))
    assert np.sort(times)[1] < times[events].min()
    cases["censored_first"] = _post_fit_case(times, events, covs)
    return cases


def test_breslow_traditional(tied_cases):
    for name, (data, fit, _, expected) in tied_cases.items():
        curve = breslow_traditional(data, fit.beta_hat).curve
        assert np.array_equal(curve.jump_times, expected["event_times"]), name
        np.testing.assert_allclose(
            curve.cumulative_values, expected["cum_hazard"], rtol=RTOL, atol=ATOL, err_msg=name
        )


def test_a_n_curve(tied_cases):
    for name, (data, fit, _, expected) in tied_cases.items():
        values = a_n_curve(data, fit.beta_hat).values_at(expected["event_times"])
        np.testing.assert_allclose(values, expected["a_n"], rtol=RTOL, atol=ATOL, err_msg=name)


def test_score_residuals(tied_cases):
    for name, (data, fit, _, expected) in tied_cases.items():
        resid = score_residuals(data, fit.beta_hat)
        np.testing.assert_allclose(
            resid, expected["score_residuals"], rtol=RTOL, atol=ATOL, err_msg=name
        )


def test_xi_plugin(tied_cases):
    for name, (data, fit, grid, expected) in tied_cases.items():
        infl = xi_plugin(data, fit, grid)
        np.testing.assert_allclose(infl.values, expected["xi"], rtol=RTOL, atol=ATOL, err_msg=name)


# The influence and variance passes work in blocks of 512 rows: n = 1100 is
# two whole blocks and a partial one.
BLOCKED_N = 1100


@pytest.fixture(scope="module")
def blocked_case():
    rng = np.random.default_rng(37)
    n = BLOCKED_N
    times = np.round(rng.exponential(1.5, n), 1) + 0.1
    events = rng.random(n) < 0.7
    covs = rng.normal(0.0, 1.0, size=(n, 2))
    data = SurvivalDataset(times, events, covs)
    fit = fit_mple(data)
    assert fit.converged
    assert np.unique(times[events]).size < events.sum()
    grid = np.array([0.0, 0.35, 1.0, 1.6, 2.5, 4.0])
    expected = brute_force_post_fit(times, events, covs, fit.beta_hat, grid)
    return data, fit, grid, expected


def test_xi_plugin_across_blocks(blocked_case):
    data, fit, grid, expected = blocked_case
    assert data.n > 2 * _BLOCK_ROWS and data.n % _BLOCK_ROWS
    infl = xi_plugin(data, fit, grid)
    np.testing.assert_allclose(infl.values, expected["xi"], rtol=RTOL, atol=ATOL)


def test_variance_estimate_across_blocks(blocked_case):
    # Reference: np.var of psi = xi - ell' A_n, all three from the oracle.
    data, fit, grid, expected = blocked_case
    xi = expected["xi"]
    ell = data.n * np.linalg.solve(fit.information, expected["score_residuals"].T).T
    k = np.searchsorted(expected["event_times"], grid, side="right") - 1
    a_grid = np.where(k[:, None] >= 0, expected["a_n"][np.maximum(k, 0)], 0.0)
    psi = xi - ell @ a_grid.T
    infl = xi_plugin(data, fit, grid)
    curves = variance_estimate(data, infl, fit, a_n_curve(data, fit.beta_hat))
    for got, ref in ((curves.xi_only, xi), (curves.total, psi)):
        want = ref.var(axis=0, ddof=1) / data.n
        assert np.array_equal(got == 0, want == 0)
        nz = want != 0
        assert np.max(np.abs(got[nz] - want[nz]) / want[nz]) <= 1e-12


def test_xi_plugin_overflow_in_last_partial_block():
    # One censored subject, the last row, has raw relative risk e^{-712.5}:
    # its influence values are nonzero but below the smallest normal float64,
    # and every other entry is in range.  The blocked check must still raise.
    rng = np.random.default_rng(41)
    n = BLOCKED_N
    times = rng.exponential(1.0, n) + 0.05
    events = rng.random(n) < 0.7
    covs = rng.normal(0.0, 1.0, size=(n, 1))
    base = SurvivalDataset(times[:-1], events[:-1], covs[:-1])
    fit0 = fit_mple(base)
    assert fit0.converged
    events[-1] = False
    times[-1] = np.median(times)
    covs[-1] = -712.5 / fit0.beta_hat[0]
    data = SurvivalDataset(times, events, covs)
    fit = fit_mple(data, init=fit0.beta_hat)
    assert fit.converged
    grid = np.linspace(0.0, float(np.median(times)), 5)
    assert xi_plugin(base, fit, grid).values.shape == (n - 1, grid.size)
    with pytest.raises(ExpOverflowError):
        xi_plugin(data, fit, grid)


def test_xi_plugin_last_event_with_tiny_relative_risk():
    # The last subject is an event alone in its risk set, with relative risk
    # about 6e-11 times that of the subject before it.  Its own event term
    # and its own jump of the path integral are each about n / w_last; the
    # entry is their difference, -w_last q(t-), some 15 orders smaller.
    times = np.arange(1.0, 10.0)
    events = np.array([1, 0, 1, 0, 1, 1, 1, 0, 1], dtype=bool)
    covs = np.array([-3.2, -0.5, -1.6, 1.5, -1.8, -0.6, -0.5, 1.1, 8.1])[:, None]
    data = SurvivalDataset(times, events, covs)
    fit = fit_mple(data)
    assert fit.converged
    grid = np.array([0.0, 2.5, 8.0, 8.5, 9.0])
    got = xi_plugin(data, fit, grid).values
    want = exact_xi_plugin(times, events, covs, fit.beta_hat, grid)
    assert np.array_equal(got == 0, want == 0)
    nz = want != 0
    assert np.max(np.abs(got[nz] - want[nz]) / np.abs(want[nz])) <= 1e-12


@pytest.mark.parametrize("log_risks,raises", [
    pytest.param([-712.5], True, id="below-normal"),
    pytest.param([-800.0], False, id="zero"),
    pytest.param([-800.0, -712.5], True, id="zero-and-below-normal"),
])
def test_xi_plugin_tiny_relative_risk_beyond_the_grid(log_risks, raises):
    # Censored subjects with raw relative risks e^{log_risks}, each at a time
    # past the grid's end: only their -w q entries are in the matrix.  At
    # e^{-712.5} they are nonzero and below the smallest normal float64; at
    # e^{-800} w, and so each of them, is 0, so the smallest w does not give
    # the smallest nonzero entry.
    rng = np.random.default_rng(43)
    n = 300
    times = rng.exponential(1.0, n) + 0.05
    events = rng.random(n) < 0.7
    covs = rng.normal(0.0, 1.0, size=(n, 1))
    fit = fit_mple(SurvivalDataset(times.copy(), events.copy(), covs.copy()))
    assert fit.converged
    tiny = np.arange(len(log_risks))
    events[tiny] = False
    times[tiny] = np.quantile(times, [0.9, 0.95][: tiny.size])
    covs[tiny, 0] = np.array(log_risks) / fit.beta_hat[0]
    data = SurvivalDataset(times, events, covs)
    grid = np.linspace(0.0, float(np.median(times)), 5)
    if raises:
        with pytest.raises(ExpOverflowError):
            xi_plugin(data, fit, grid)
    else:
        values = xi_plugin(data, fit, grid).values
        assert np.all(values[tiny] == 0.0) and np.any(values[:, 1:] != 0.0)


def _raises(read) -> bool:
    try:
        read()
    except ExpOverflowError:
        return True
    return False


@pytest.mark.parametrize("edge,ends", [
    pytest.param("overflow", (700.0, 712.0), id="overflow"),
    pytest.param("underflow", (-695.0, -712.0), id="underflow"),
])
def test_xi_plugin_range_check_agrees_with_every_entry(monkeypatch, edge, ends):
    # A covariate shift moves only the raw-scale factor e^{-beta'means} of
    # every entry.  Bisect the factor's log to where xi_plugin's O(n + g)
    # check starts to raise; at every step, building the entries one by one
    # must raise exactly when the check does.
    # Relative risk e^{z}; the last subject, with z = 4, is censored past
    # the grid's end, so the largest entries are its -w q.
    rng = np.random.default_rng(47)
    n = 300
    covs = rng.normal(0.0, 1.0, size=(n, 1))
    times = rng.exponential(1.0 / np.exp(covs[:, 0])) + 0.05
    events = rng.random(n) < 0.7
    covs[-1], times[-1], events[-1] = 4.0, np.quantile(times, 0.9), False
    fit = fit_mple(SurvivalDataset(times, events, covs))
    assert fit.converged
    beta = fit.beta_hat[0]
    grid = np.linspace(0.0, float(np.median(times)), 5)
    check = linearize._check_range
    monkeypatch.setattr(linearize, "_check_range", lambda infl: None)

    def check_raises(log_factor):
        shifted = covs - log_factor / beta - covs.mean()
        infl = xi_plugin(SurvivalDataset(times, events, shifted), fit, grid)
        fast = _raises(lambda: check(infl))
        assert fast == _raises(lambda: infl.values), log_factor
        return fast

    ok, bad = ends
    assert not check_raises(ok) and check_raises(bad)
    for _ in range(45):
        mid = 0.5 * (ok + bad)
        if check_raises(mid):
            bad = mid
        else:
            ok = mid
    assert abs(bad - ok) < 1e-9
