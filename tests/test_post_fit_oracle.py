import numpy as np
import pytest

from breslow_lab import (
    SurvivalDataset,
    a_n_curve,
    breslow_traditional,
    fit_mple,
    score_residuals,
    xi_plugin,
)

from oracles import brute_force_post_fit

RTOL = 1e-10
ATOL = 1e-13


@pytest.fixture(scope="module")
def tied_case():
    # p = 2, times rounded to a coarse grid so that most event times are tied.
    rng = np.random.default_rng(31)
    n = 60
    times = np.round(rng.exponential(1.5, n), 1) + 0.1
    events = rng.random(n) < 0.7
    covs = rng.normal(0.0, 1.0, size=(n, 2))
    data = SurvivalDataset(times, events, covs)
    fit = fit_mple(data)
    assert fit.converged
    assert np.unique(times[events]).size < events.sum()
    grid = np.array([0.0, 0.35, 1.0, 1.6, 2.5, float(times.max())])
    expected = brute_force_post_fit(times, events, covs, fit.beta_hat, grid)
    return data, fit, grid, expected


def test_breslow_traditional(tied_case):
    data, fit, _, expected = tied_case
    curve = breslow_traditional(data, fit.beta_hat).curve
    assert np.array_equal(curve.jump_times, expected["event_times"])
    np.testing.assert_allclose(
        curve.cumulative_values, expected["cum_hazard"], rtol=RTOL, atol=ATOL
    )


def test_a_n_curve(tied_case):
    data, fit, _, expected = tied_case
    a_curve = a_n_curve(data, fit.beta_hat)
    values = a_curve.values_at(expected["event_times"])
    np.testing.assert_allclose(values, expected["a_n"], rtol=RTOL, atol=ATOL)


def test_score_residuals(tied_case):
    data, fit, _, expected = tied_case
    resid = score_residuals(data, fit.beta_hat)
    np.testing.assert_allclose(resid, expected["score_residuals"], rtol=RTOL, atol=ATOL)


def test_xi_plugin(tied_case):
    data, fit, grid, expected = tied_case
    infl = xi_plugin(data, fit, grid)
    np.testing.assert_allclose(infl.values, expected["xi"], rtol=RTOL, atol=ATOL)
