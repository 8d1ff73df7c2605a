"""Shift laws over random datasets (hypothesis).

Replacing covariate ``j`` by ``Z_j + s`` leaves the fit, the information and
the score residuals unchanged, and multiplies the Breslow curve and the
plug-in influence values by ``e^{-beta_j s}``.  Every shifted dataset is a new
object, so these laws also check that no risk table leaks from one dataset to
another.
"""

import numpy as np
from hypothesis import assume, given, strategies as st

from breslow_lab import (
    SurvivalDataset,
    breslow_traditional,
    fit_mple,
    score_and_information,
    score_residuals,
    xi_plugin,
)
from breslow_lab.coxfit import _SCORE_TOL

from conftest import survival_datasets


def shifted(data, j, s):
    covs = np.array(data.covariates)
    covs[:, j] += s
    return SurvivalDataset(data.times, data.events, covs)


def close(a, b, rtol):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b), initial=0.0) <= rtol * (1.0 + np.max(np.abs(b), initial=0.0))


@given(
    data=survival_datasets(min_n=6, max_n=30, min_p=1, max_p=2),
    col=st.integers(0, 1),
    s=st.floats(-50.0, 50.0, allow_nan=False),
)
def test_shift_laws(data, col, s):
    j = col % data.covariate_dim
    fit = fit_mple(data)
    # The laws hold in floating point where the fit is well determined (an
    # information far above its rounding floor and a modest condition
    # number) and where e^{-beta_j s} times the outputs stays inside float64.
    assume(fit.converged)
    eig = np.linalg.eigvalsh(fit.information)
    assume(eig[0] >= 1e-3 and eig[-1] <= 1e6 * eig[0])
    beta = fit.beta_hat
    assume(abs(beta[j] * s) <= 400.0)
    moved = shifted(data, j, s)

    fit_s = fit_mple(moved)
    assert fit_s.status == fit.status
    assert max(fit.score_norm, fit_s.score_norm) <= _SCORE_TOL
    assert close(fit_s.beta_hat, beta, 1e-8)

    # At the same beta: invariant information and score residuals ...
    assert close(score_and_information(moved, beta)[1], fit.information, 1e-10)
    assert close(score_residuals(moved, beta), score_residuals(data, beta), 1e-10)

    # ... and the raw-scale outputs scaled by e^{-beta_j s}.
    factor = np.exp(-beta[j] * s)
    lam = breslow_traditional(data, beta).curve.cumulative_values
    lam_s = breslow_traditional(moved, beta).curve.cumulative_values
    assert close(lam_s / factor, lam, 1e-10)
    # Relative to the largest influence value, not to the size of the terms
    # it is formed from: a row's own event term and its own jump of the path
    # integral are combined before they can cancel.
    grid = np.linspace(0.0, float(data.times.max()), 5)
    xi = xi_plugin(data, fit, grid).values
    xi_s = xi_plugin(moved, fit, grid).values
    assert np.max(np.abs(xi_s / factor - xi)) <= 1e-10 * np.max(np.abs(xi))
