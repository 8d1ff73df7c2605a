"""Maximum partial likelihood estimation for the proportional hazards model.

Tied event times use the Breslow convention: every event at a tied time is
scored against the full risk set at that time, which keeps the fitted
coefficients algebraically coherent with the baseline hazard estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .risk import RiskAggregates, build_aggregates, event_increments

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_SEPARATION = "separation_detected"
STATUS_SINGULAR = "singular_information"

# Stabilize the risk-set denominators once linear predictors approach the
# float64 exp() limit.
_STABILIZE_ABOVE = 700.0
_SEPARATION_NORM = 30.0
_MAX_CONDITION = 1e12
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class CoxFit:
    """Fit result: coefficients plus convergence diagnostics.

    ``information`` is the observed information (minus the Hessian of the
    log partial likelihood) at ``beta_hat``.  ``status == "converged"``
    guarantees ``score_norm <= tol``.
    """

    beta_hat: np.ndarray
    log_partial_likelihood: float
    score_norm: float
    information: np.ndarray
    iterations: int
    status: str

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED


def _aggregates_for_likelihood(data: SurvivalDataset, beta) -> RiskAggregates:
    # Always centered, so an overflowing trial point yields a non-finite
    # likelihood (a failed line-search step) instead of an error.
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    eta_max = float(np.max(data.covariates @ beta)) if beta.size else 0.0
    center = eta_max if eta_max > _STABILIZE_ABOVE else 0.0
    return build_aggregates(data, beta, center=center)


def _log_likelihood(data: SurvivalDataset, agg: RiskAggregates) -> float:
    """Breslow-tie log partial likelihood read off a risk table."""
    sv = data.sorted_view
    log_denom = np.log(agg.s0[sv.event_time_index]) + agg.log_scale
    return math.fsum(sv.event_cov_sums @ agg.beta - sv.event_counts * log_denom)


def log_partial_likelihood(data: SurvivalDataset, beta) -> float:
    """Breslow-tie log partial likelihood.

    Each event contributes its linear predictor minus the log of the full
    risk-set sum of ``exp(beta'Z)`` at its time.
    """
    if data.covariate_dim == 0:
        raise ValueError("log partial likelihood requires at least one covariate")
    return _log_likelihood(data, _aggregates_for_likelihood(data, beta))


def score_and_information(data: SurvivalDataset, beta, *, agg: RiskAggregates | None = None):
    """Score vector and observed information of the log partial likelihood.

    Returns ``(U, I)`` with ``U = sum_events (Z_i - s1/s0)`` and
    ``I = sum_events (s2/s0 - (s1/s0)(s1/s0)')`` evaluated at the event
    times.  ``I`` is symmetric positive semidefinite.
    """
    if data.covariate_dim == 0:
        raise ValueError("score requires at least one covariate")
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if agg is None:
        agg = _aggregates_for_likelihood(data, beta)
    sv = data.sorted_view
    k = sv.event_time_index
    s0 = agg.s0[k]
    means = agg.s1[k] / s0[:, None]
    second = agg.s2[k] / s0[:, None, None]
    d = sv.event_counts.astype(float)
    # Per-event-time terms are O(1); exact summation keeps the score's
    # floating-point floor far below the 1e-10 convergence tolerance even at
    # n = 1e5 (a single big-sum difference would drown it in cancellation).
    p = data.covariate_dim
    terms = sv.event_cov_sums - d[:, None] * means
    score = np.array([math.fsum(terms[:, j]) for j in range(p)])
    covs = second - means[:, :, None] * means[:, None, :]
    info_terms = d[:, None, None] * covs
    info = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            info[i, j] = info[j, i] = math.fsum(info_terms[:, i, j])
    return score, info


def _is_singular(info: np.ndarray) -> bool:
    sing = np.linalg.svd(info, compute_uv=False)
    if sing.size == 0 or sing[0] == 0.0 or not np.all(np.isfinite(sing)):
        return True
    return bool(sing[0] / sing[-1] > _MAX_CONDITION)


def fit_mple(
    data: SurvivalDataset,
    init=None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> CoxFit:
    """Newton-Raphson maximization of the partial likelihood.

    Full Newton steps with step-halving (halve until the log likelihood does
    not decrease, at most 30 halvings).  Convergence requires the score norm
    at or below ``tol`` together with a stable iterate: a tiny score paired
    with O(1) Newton steps signals a flat ridge, which is how monotone
    likelihoods (separation) are told apart from genuine optima.

    Failure statuses: ``singular_information`` when the information matrix
    has condition number above 1e12, ``separation_detected`` once ``|beta|``
    exceeds 30 with the likelihood still strictly increasing at every
    accepted step, ``max_iterations`` otherwise.
    """
    p = data.covariate_dim
    if p == 0:
        raise ValueError("nothing to fit: dataset has no covariates")
    if tol <= 0 or max_iter <= 0:
        raise ValueError("tol and max_iter must be positive")
    beta = np.zeros(p) if init is None else np.array(init, dtype=float).reshape(p)
    # One risk table per trial point: the accepted trial's table also gives
    # the next score and information.
    agg = _aggregates_for_likelihood(data, beta)
    ll = _log_likelihood(data, agg)
    always_increasing = True
    iterations = 0

    def result(status, score, info):
        return CoxFit(
            beta_hat=beta.copy(),
            log_partial_likelihood=ll,
            score_norm=float(np.linalg.norm(score)),
            information=info,
            iterations=iterations,
            status=status,
        )

    for _ in range(max_iter):
        score, info = score_and_information(data, beta, agg=agg)
        if _is_singular(info):
            return result(STATUS_SINGULAR, score, info)
        direction = np.linalg.solve(info, score)
        score_small = np.linalg.norm(score) <= tol
        step_small = np.linalg.norm(direction) <= 1e-4 * (1.0 + np.linalg.norm(beta))
        if score_small and step_small:
            return result(STATUS_CONVERGED, score, info)
        if np.linalg.norm(direction) <= 1e-6 * (1.0 + np.linalg.norm(beta)):
            # Quadratic-convergence region: the true likelihood gain is below
            # evaluation noise, so a monotonicity line search would stall.
            candidate = beta + direction
            agg = _aggregates_for_likelihood(data, candidate)
            ll_new = _log_likelihood(data, agg)
        else:
            step = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                candidate = beta + step * direction
                agg = _aggregates_for_likelihood(data, candidate)
                ll_new = _log_likelihood(data, agg)
                if np.isfinite(ll_new) and ll_new >= ll:
                    break
                step *= 0.5
        always_increasing = always_increasing and ll_new > ll
        beta = candidate
        ll = ll_new
        iterations += 1
        if np.linalg.norm(beta) > _SEPARATION_NORM and always_increasing:
            score, info = score_and_information(data, beta, agg=agg)
            return result(STATUS_SEPARATION, score, info)
    score, info = score_and_information(data, beta, agg=agg)
    if _is_singular(info):
        return result(STATUS_SINGULAR, score, info)
    if np.linalg.norm(score) <= tol:
        return result(STATUS_CONVERGED, score, info)
    return result(STATUS_MAX_ITERATIONS, score, info)


def score_residuals(data: SurvivalDataset, beta) -> np.ndarray:
    """Per-subject score residuals at ``beta`` (n-by-p).

    Subject ``i`` contributes its event term ``Z_i - zbar(T_i)`` minus its
    accumulated exposure ``exp(beta'Z_i) * sum_{t_k <= T_i} (Z_i - zbar(t_k))
    dL(t_k)``, where ``zbar`` is the risk-set covariate mean and ``dL`` the
    baseline hazard increment.  The exposure is read off the Breslow curve
    ``sum dL`` and the sensitivity curve ``A_n = sum zbar dL``, both running
    sums over one risk table.  The residuals sum to the total score and are
    the per-subject terms of the coefficient estimator's linear expansion.
    """
    if data.covariate_dim == 0:
        raise ValueError("score residuals require at least one covariate")
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    d_lambda, zbar = event_increments(data, build_aggregates(data, beta))
    sv = data.sorted_view
    cum_dl = np.concatenate([[0.0], np.cumsum(d_lambda)])
    cum_zbar_dl = np.concatenate(
        [np.zeros((1, data.covariate_dim)), np.cumsum(zbar * d_lambda[:, None], axis=0)]
    )
    w = np.exp(data.covariates @ beta)
    pos = np.searchsorted(sv.distinct_event_times, data.times, side="right")
    exposure = w[:, None] * (data.covariates * cum_dl[pos][:, None] - cum_zbar_dl[pos])
    event_term = np.zeros_like(data.covariates)
    ev = data.events
    idx = np.searchsorted(sv.distinct_event_times, data.times[ev])
    event_term[ev] = data.covariates[ev] - zbar[idx]
    return event_term - exposure
