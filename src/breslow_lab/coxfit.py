"""Maximum partial likelihood estimation for the proportional hazards model.

Tied event times use the Breslow convention: every event at a tied time is
scored against the full risk set at that time, which keeps the fitted
coefficients algebraically coherent with the baseline hazard estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .risk import (
    ExpOverflowError,
    RiskAggregates,
    _running_sums,
    _upper_pairs,
    build_aggregates,
)

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max_iterations"
STATUS_SEPARATION = "separation_detected"
STATUS_SINGULAR = "singular_information"

# Spread max beta'Z - min beta'Z beyond which a flat likelihood with a
# non-vanishing Newton step is reported as separation: a hazard ratio of
# e^30 between two subjects.
_SEPARATION_SPREAD = 30.0
_MAX_CONDITION = 1e12
# Convergence bound on the score norm; absolute, so in the covariates' units.
_SCORE_TOL = 1e-10
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class CoxFit:
    """Fit result: coefficients plus convergence diagnostics.

    ``information`` is the observed information (minus the Hessian of the
    log partial likelihood) at ``beta_hat``.  ``status == "converged"``
    guarantees ``score_norm <= 1e-10``.
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


def _log_likelihood(data: SurvivalDataset, agg: RiskAggregates) -> float:
    """Breslow-tie log partial likelihood read off a (centered) risk table."""
    sv = data.sorted_view
    terms = sv.event_cov_sums @ agg.beta - sv.event_counts * np.log(agg.s0)
    return float(_running_sums(terms, -1))


def log_partial_likelihood(data: SurvivalDataset, beta) -> float:
    """Breslow-tie log partial likelihood.

    Each event contributes its linear predictor minus the log of the full
    risk-set sum of ``exp(beta'Z)`` at its time.
    """
    if data.covariate_dim == 0:
        raise ValueError("log partial likelihood requires at least one covariate")
    return _log_likelihood(data, build_aggregates(data, beta))


def score_and_information(data: SurvivalDataset, beta):
    """Score vector and observed information of the log partial likelihood.

    Returns ``(U, I)`` with ``U = sum_events (Z_i - s1/s0)`` and
    ``I = sum_k d_k (s2_k/s0_k - m_k m_k')``, ``m = s1/s0``, over the
    distinct times ``t_k`` with ``d_k`` events each (Breslow ties: the events
    at ``t_k`` share its full risk set).  ``I`` is symmetric positive
    semidefinite.  Read off the risk table at ``beta``, which the fitter's
    last trial point has already built.

    The second-moment part needs no per-time ``s2``.  With ``w_j =
    exp(beta'Zc_j)`` and ``s2_k = sum_{T_j >= t_k} w_j Zc_j Zc_j'``, swapping
    the two sums gives

        sum_k d_k s2_k / s0_k = sum_j w_j Zc_j Zc_j' sum_{t_k <= T_j} d_k / s0_k
                              = sum_j w_j L(T_j) Zc_j Zc_j',

    where ``L(t) = sum_{t_k <= t} d_k / s0_k`` is Breslow's cumulative hazard
    on the centered scale (the counting-process form of Andersen & Gill,
    Ann. Statist. 1982).  Ties change nothing in the swap: subject ``j`` is in
    the risk set of every ``t_k <= T_j``, its own time included, so ``L(T_j)``
    holds the whole jump ``d_k / s0_k`` of the events tied at ``T_j``, as the
    weak inequality ``T_j >= t_k`` of ``s2_k`` asks.  So ``I = Zc' diag(w L)
    Zc - (d m)' m``: the table's ``gram`` less one p-by-p product, made
    exactly symmetric by mirroring its upper triangle.
    """
    if data.covariate_dim == 0:
        raise ValueError("score requires at least one covariate")
    agg = build_aggregates(data, beta)
    sv = data.sorted_view
    means = agg.s1 / agg.s0[:, None]
    d_means = sv.event_counts[:, None] * means
    # Per-event-time terms are O(1); one compensated total per column keeps
    # the score's floating-point floor far below the 1e-10 convergence
    # tolerance even at n = 1e5 (a single big-sum difference would drown it
    # in cancellation).
    score = _running_sums(sv.event_cov_sums - d_means, -1)
    info = agg.gram - d_means.T @ means
    iu, ju = _upper_pairs(data.covariate_dim)
    info[ju, iu] = info[iu, ju]
    return score, info


def _trial(data: SurvivalDataset, beta) -> float:
    # A trial point whose risk table leaves float64 is a failed line-search
    # step (log-likelihood -inf), not an error.
    try:
        return _log_likelihood(data, build_aggregates(data, beta))
    except ExpOverflowError:
        return -np.inf


def _moments_fit(data: SurvivalDataset, beta) -> RiskAggregates | None:
    # The moment pass runs only for a point the search takes: its score and
    # information read it.  The point's table, or None when it leaves float64.
    try:
        agg = build_aggregates(data, beta)
        agg.gram
    except ExpOverflowError:
        return None
    return agg


def _is_singular(info: np.ndarray) -> bool:
    # Eigenvalues, not singular values: on separated data the score can
    # underflow to zero while the information turns negative, and only the
    # eigenvalues carry that sign.
    if info.size == 0 or not np.all(np.isfinite(info)):
        return True
    eig = np.linalg.eigvalsh(info)
    return not (eig[-1] > 0.0 and eig[0] * _MAX_CONDITION >= eig[-1])


def fit_mple(data: SurvivalDataset, init=None, max_iter: int = 50) -> CoxFit:
    """Newton-Raphson maximization of the partial likelihood.

    Full Newton steps with step-halving (halve until the log likelihood does
    not decrease, at most 30 halvings).  Convergence requires the score norm
    at or below 1e-10 together with a stable iterate: a Newton step that
    moves the linear predictor by a spread ``ptp(Z step)`` of at most 1e-4
    times ``1 + ptp(Z beta)``.  A tiny score paired with O(1) steps signals
    a flat ridge, which is how monotone likelihoods (separation) are told
    apart from genuine optima.

    Failure statuses: ``singular_information`` when the information matrix
    is not positive definite or has condition number above 1e12,
    ``separation_detected`` when the score is at or below 1e-10 while the
    Newton step is not small and the spread of the linear predictor,
    ``max beta'Z - min beta'Z`` over the subjects, exceeds 30 (a hazard
    ratio of e^30; for a 0/1 covariate this is ``|beta| > 30``).  Near a
    finite optimum the step shrinks with the score, so a wide spread alone
    is never reported.  ``max_iterations`` otherwise (also when every trial
    point of a line search leaves the float64 range).  The iterate after
    ``max_iter`` steps faces the same tests as every earlier one, so raising
    ``max_iter`` past the step a fit stops at does not change its status.
    The criteria and the fit are invariant to a constant shift of a
    covariate.  The stable-iterate and separation tests are unit-free, but
    the 1e-10 score tolerance is absolute (ROADMAP: "A scale-free stopping
    rule for the fit").  An ``init`` whose risk table leaves the float64
    range raises ``ValueError``.
    """
    p = data.covariate_dim
    if p == 0:
        raise ValueError("nothing to fit: dataset has no covariates")
    if max_iter <= 0:
        raise ValueError("max_iter must be positive")
    beta = np.zeros(p) if init is None else np.array(init, dtype=float).reshape(p)
    # One risk table per trial point: the accepted trial is the last one
    # built, so the next score and information reuse its table.
    ll = _trial(data, beta)
    table = None if ll == -np.inf else _moments_fit(data, beta)
    if table is None:
        raise ValueError(f"init {init!r}: the risk table leaves the float64 range")
    z = data.sorted_view.centered

    def result(status, score, info):
        return CoxFit(
            beta_hat=beta.copy(),
            log_partial_likelihood=ll,
            score_norm=float(np.linalg.norm(score)),
            information=info,
            iterations=iterations,
            status=status,
        )

    # Pass k tests the iterate after k accepted steps; the last pass only tests.
    for iterations in range(max_iter + 1):
        score, info = score_and_information(data, beta)
        if _is_singular(info):
            return result(STATUS_SINGULAR, score, info)
        direction = np.linalg.solve(info, score)
        # Step and iterate are compared as spreads of the linear predictor,
        # so both tests are invariant to the units of every covariate; the
        # iterate's is read off its risk table.
        spread = table.spread
        step_spread = np.ptp(z @ direction)
        score_small = np.linalg.norm(score) <= _SCORE_TOL
        if score_small and step_spread <= 1e-4 * (1.0 + spread):
            return result(STATUS_CONVERGED, score, info)
        # A flat likelihood that still asks for a large step runs off along a
        # ridge; near a finite optimum the step shrinks with the score.
        if score_small and spread > _SEPARATION_SPREAD:
            return result(STATUS_SEPARATION, score, info)
        if iterations == max_iter:
            break
        if step_spread <= 1e-6 * (1.0 + spread):
            # Quadratic-convergence region: the true likelihood gain is below
            # evaluation noise, so a monotonicity line search would stall.
            steps = [1.0]
        else:
            steps = 0.5 ** np.arange(_MAX_HALVINGS + 1)
        for step in steps:
            candidate = beta + step * direction
            ll_new = _trial(data, candidate)
            # The last step is taken whatever its value, unless it overflows.
            taken = ll_new >= ll or (step == steps[-1] and ll_new > -np.inf)
            if taken and (fitted := _moments_fit(data, candidate)) is not None:
                break
        else:
            # Every trial point left float64: the line search cannot move.
            break
        beta, ll, table = candidate, ll_new, fitted
    return result(STATUS_MAX_ITERATIONS, score, info)


def score_residuals(data: SurvivalDataset, beta) -> np.ndarray:
    """Per-subject score residuals at ``beta`` (n-by-p), in input order.

    Subject ``i`` contributes its event term ``Z_i - zbar(T_i)`` minus its
    accumulated exposure ``exp(beta'Z_i) * sum_{t_k <= T_i} (Z_i - zbar(t_k))
    dL(t_k)``, where ``zbar`` is the risk-set covariate mean and ``dL`` the
    baseline hazard increment.  The residuals sum to the total score and are
    the per-subject terms of the coefficient estimator's linear expansion.
    The rows of :func:`_sorted_score_residuals`, put back in input order.
    """
    if data.covariate_dim == 0:
        raise ValueError("score residuals require at least one covariate")
    sorted_rows = _sorted_score_residuals(data, beta)
    out = np.empty_like(sorted_rows)
    out[data.sorted_view.order] = sorted_rows
    return out


def _sorted_score_residuals(data: SurvivalDataset, beta) -> np.ndarray:
    """:func:`score_residuals` with the rows in time order (``sorted_view``).

    The exposure is read, at each row's distinct-time index and without a
    search, off the running sums ``sum dL`` and ``sum zbar dL`` (the Breslow
    curve and ``A_n``, centered) over one risk table; the first is the table's
    ``exposure``, which the information's ``gram`` reads too.
    """
    agg = build_aggregates(data, beta)
    sv = data.sorted_view
    # Centered throughout: exp(beta'Z_i) dL = exp(beta'(Z_i - means)) d / s0
    # and Z_i - zbar is unchanged by centering, so no raw-scale factor enters.
    d_lambda, hazard = agg.exposure
    zbar = agg.s1 / agg.s0[:, None]
    a_n = np.cumsum(zbar * d_lambda[:, None], axis=0)[sv.group_of]
    z = sv.centered
    exposure = agg.w[::-1, None] * (z * hazard[:, None] - a_n)
    # Event rows fall on the distinct times in runs of ``event_counts``.
    event_term = np.zeros_like(z)
    event_term[sv.events] = z[sv.events] - np.repeat(zbar, sv.event_counts, axis=0)
    return event_term - exposure
