"""Sample laws over random datasets (hypothesis).

The estimators are functions of the empirical distribution of the rows, so
permuting the rows changes nothing but the order of the per-subject outputs,
and duplicating every row leaves ``beta_hat`` and the Breslow curve unchanged
and doubles the information (the score and the information are sums over
subjects).  A strictly increasing map of the times keeps their ranks and
ties, on which the partial likelihood and the Breslow increments depend, so
it changes nothing but where the Breslow curve jumps.  Every permuted,
duplicated or time-mapped dataset is a new object, so these laws also check
that no risk table leaks from one dataset to another.
"""

import numpy as np
from hypothesis import assume, given, strategies as st

from breslow_lab import (
    SurvivalDataset,
    a_n_curve,
    breslow_traditional,
    fit_mple,
    variance_estimate,
    xi_plugin,
)
from breslow_lab.coxfit import _SCORE_TOL

from conftest import survival_datasets

# Strictly increasing maps that keep the times positive and finite.
TIME_MAPS = {
    "cube": lambda t: t**3,
    "exp": np.exp,
    "log1p": np.log1p,
}


def rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b), initial=0.0) / (1.0 + np.max(np.abs(b), initial=0.0))


def well_determined_fit(data):
    """The fit, where the laws hold in floating point (as in the shift laws)."""
    fit = fit_mple(data)
    assume(fit.converged)
    eig = np.linalg.eigvalsh(fit.information)
    assume(eig[0] >= 1e-3 and eig[-1] <= 1e6 * eig[0])
    return fit, eig[0]


@given(data=survival_datasets(min_n=6, max_n=30, min_p=1, max_p=2), seed=st.integers(0, 2**32 - 1))
def test_row_permutation(data, seed):
    fit, _ = well_determined_fit(data)
    order = np.random.default_rng(seed).permutation(data.n)
    moved = SurvivalDataset(data.times[order], data.events[order], data.covariates[order])
    fit_p = fit_mple(moved)
    assert fit_p.status == fit.status
    assert max(fit.score_norm, fit_p.score_norm) <= _SCORE_TOL
    # Only the summation order inside tie runs can change, so the laws hold
    # to rounding.
    assert rel_err(fit_p.beta_hat, fit.beta_hat) <= 1e-12

    lam = breslow_traditional(data, fit.beta_hat).curve.cumulative_values
    lam_p = breslow_traditional(moved, fit_p.beta_hat).curve.cumulative_values
    assert rel_err(lam_p, lam) <= 1e-12

    grid = np.linspace(0.0, float(data.times.max()), 5)
    infl = xi_plugin(data, fit, grid)
    infl_p = xi_plugin(moved, fit_p, grid)
    assert rel_err(infl_p.values, infl.values[order]) <= 1e-12
    var = variance_estimate(data, infl, fit, a_n_curve(data, fit.beta_hat))
    var_p = variance_estimate(moved, infl_p, fit_p, a_n_curve(moved, fit_p.beta_hat))
    assert rel_err(var_p.total, var.total) <= 1e-12
    assert rel_err(var_p.xi_only, var.xi_only) <= 1e-12


@given(data=survival_datasets(min_n=6, max_n=30, min_p=1, max_p=2))
def test_row_duplication(data):
    fit, eig_min = well_determined_fit(data)
    twice = SurvivalDataset(
        np.tile(data.times, 2), np.tile(data.events, 2), np.tile(data.covariates, (2, 1))
    )
    fit_d = fit_mple(twice)
    assert fit_d.status == fit.status
    assert max(fit.score_norm, fit_d.score_norm) <= _SCORE_TOL
    # To first order a fit lies within _SCORE_TOL / eig_min of the common
    # maximizer, and the duplicated one, whose score and information are
    # doubled, within half that; twice their sum leaves room for the
    # second-order term, and the floor for rounding.
    d_beta = 2.0 * 1.5 * _SCORE_TOL / eig_min + 1e-12 * (1.0 + np.max(np.abs(fit.beta_hat)))
    assert np.max(np.abs(fit_d.beta_hat - fit.beta_hat)) <= d_beta

    # A move of d_beta changes log S0 and every risk-set moment by at most
    # |Z - zbar| <= 2 max|Z| per unit of beta, in each of p coordinates.
    drift = 2.0 * np.max(np.abs(data.covariates)) * data.covariate_dim * d_beta
    assert rel_err(fit_d.information / 2.0, fit.information) <= drift + 1e-12
    lam = breslow_traditional(data, fit.beta_hat).curve.cumulative_values
    lam_d = breslow_traditional(twice, fit_d.beta_hat).curve.cumulative_values
    assert rel_err(lam_d, lam) <= drift + 1e-12


@given(data=survival_datasets(min_n=6, max_n=30, min_p=1, max_p=2),
       name=st.sampled_from(sorted(TIME_MAPS)))
def test_time_transform(data, name):
    g = TIME_MAPS[name]
    # The map must stay strict on the distinct times in float64 too.
    assume(np.all(np.diff(g(np.unique(data.times))) > 0))
    moved = SurvivalDataset(g(data.times), data.events, data.covariates)
    fit, fit_g = fit_mple(data), fit_mple(moved)
    assert (fit_g.status, fit_g.iterations) == (fit.status, fit.iterations)
    assert fit_g.beta_hat.tobytes() == fit.beta_hat.tobytes()
    # A fit that diverged may leave float64 on the raw scale.
    assume(fit.converged)
    assert max(fit.score_norm, fit_g.score_norm) <= _SCORE_TOL
    curve = breslow_traditional(data, fit.beta_hat).curve
    curve_g = breslow_traditional(moved, fit.beta_hat).curve
    assert curve_g.cumulative_values.tobytes() == curve.cumulative_values.tobytes()
    assert curve_g.jump_times.tobytes() == g(curve.jump_times).tobytes()
