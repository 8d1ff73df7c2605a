"""Empirical risk-set functionals via suffix sums over sorted follow-up times.

For a coefficient vector ``beta`` the engine tabulates, at every distinct
follow-up time ``t_k``,

    s0[k] = sum_{T_j >= t_k} exp(beta'Z_j)
    s1[k] = sum_{T_j >= t_k} Z_j exp(beta'Z_j)
    s2[k] = sum_{T_j >= t_k} Z_j Z_j' exp(beta'Z_j)

so that the weighted risk mass ``phi_n(beta, x) = s0[k(x)] / n`` and its
first and second beta-derivatives are O(log n) lookups for arbitrary ``x``
(weak inequality: ``k(x)`` is the first distinct time >= x).  All three
tables come from one pass over the addend columns ``[w, w Z, w Z_i Z_j]``
(``w = exp(beta'Z)``, ``i <= j``) in descending time order, summed with the
compensated Sum2 algorithm of Ogita, Rump & Oishi, "Accurate sum and dot
product" (SIAM J. Sci. Comput. 26, 2005): the result is as accurate as a
plain sum carried out in twice the working precision, so rate experiments at
n = 1e5 keep accumulation error far below 1e-12 relative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SurvivalDataset

# Largest exponent with a finite float64 exp().
EXP_OVERFLOW = 709.782712893384


class ExpOverflowError(OverflowError):
    """exp(beta'Z) does not fit in a float64."""


@dataclass(frozen=True)
class RiskAggregates:
    """Suffix-sum tables for one dataset at one beta.

    ``s0/s1/s2`` hold sums of ``exp(beta'Z - log_scale)``; ``log_scale`` is
    zero unless the caller asked for a stabilizing shift, and ratio queries
    (s1/s0, s2/s0) never see it.
    """

    beta: np.ndarray
    distinct_times: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    n: int
    log_scale: float = field(default=0.0)

    @property
    def p(self) -> int:
        return int(self.beta.size)

    def time_index(self, x) -> np.ndarray:
        """Index of the first distinct time >= x (len(distinct_times) if none)."""
        return np.searchsorted(self.distinct_times, np.asarray(x, dtype=float), side="left")


def _running_sums(addends: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Compensated running sums of ``addends`` along axis 0, read at ``rows``.

    Sum2 of Ogita, Rump & Oishi: a running sum, the exact TwoSum rounding
    error of each of its additions, and the running sum of those errors added
    back at the rows read.  The risk tables and the quadrature prefix sums
    both use it.
    """
    total = np.cumsum(addends, axis=0)
    prev = np.concatenate([np.zeros_like(total[:1]), total[:-1]])
    step = total - prev
    err = (prev - (total - step)) + (addends - step)
    return total[rows] + np.cumsum(err, axis=0)[rows]


def build_aggregates(data: SurvivalDataset, beta, *, center: float | None = None) -> RiskAggregates:
    """Compute suffix-sum tables for ``data`` at ``beta``.

    With ``center=None`` the raw exponents are used, and a ``beta'Z`` above
    the float64 limit or a risk-set sum that overflows is a hard error
    (silent saturation would corrupt rate experiments).  Passing ``center=c``
    accumulates ``exp(beta'Z - c)`` and records ``log_scale=c`` without
    either check; the fitter uses this to stabilize extreme linear predictors
    and rejects non-finite trial points itself.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    if beta.size != data.covariate_dim:
        raise ValueError(f"beta has length {beta.size}, expected {data.covariate_dim}")
    sv = data.sorted_view
    p = data.covariate_dim
    z = sv.covariates
    eta = z @ beta
    top = float(eta.max()) if eta.size else 0.0
    if center is None and top > EXP_OVERFLOW:
        raise ExpOverflowError(f"exp overflow: beta'Z = {top!r} exceeds float64 range")
    scale = 0.0 if center is None else float(center)
    m = sv.distinct_times.size
    iu, ju = np.triu_indices(p)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(eta - scale)
        addends = np.column_stack([w, w[:, None] * z, w[:, None] * (z[:, iu] * z[:, ju])])
        # Suffix sums: running sums over the rows in descending time order.
        table = _running_sums(addends[::-1], data.n - 1 - sv.group_starts)
    if center is None and not np.isfinite(table).all():
        raise ExpOverflowError(f"risk-set sums overflow float64 (max beta'Z = {top!r})")
    s0 = table[:, 0]
    s1 = table[:, 1 : 1 + p]
    s2 = np.empty((m, p, p))
    s2[:, iu, ju] = table[:, 1 + p :]
    s2[:, ju, iu] = table[:, 1 + p :]
    return RiskAggregates(
        beta=beta,
        distinct_times=sv.distinct_times,
        s0=s0,
        s1=s1,
        s2=s2,
        n=data.n,
        log_scale=scale,
    )


def _lookup(agg: RiskAggregates, table: np.ndarray, x):
    """Row of ``table`` at the first distinct time >= x (zero past the last) over n."""
    x_arr = np.asarray(x, dtype=float)
    padded = np.concatenate([table, np.zeros((1,) + table.shape[1:])])
    out = padded[agg.time_index(x_arr)] / agg.n * np.exp(agg.log_scale)
    return out if x_arr.ndim or out.ndim else float(out)


def phi_n(agg: RiskAggregates, x):
    """Weighted risk mass (1/n) sum_{T_j >= x} exp(beta'Z_j).

    Left-continuous and nonincreasing in ``x``; zero beyond the largest
    follow-up time.
    """
    return _lookup(agg, agg.s0, x)


def d1_n(agg: RiskAggregates, x):
    """Gradient of ``phi_n`` in beta: (1/n) sum_{T_j >= x} Z_j exp(beta'Z_j)."""
    return _lookup(agg, agg.s1, x)


def d2_n(agg: RiskAggregates, x):
    """Hessian of ``phi_n`` in beta; symmetric positive semidefinite."""
    return _lookup(agg, agg.s2, x)


def event_increments(data: SurvivalDataset, agg: RiskAggregates):
    """Breslow increments and risk-set means at the distinct event times.

    Returns ``(d_lambda, zbar)`` with ``d_lambda[k] = d_k / S0(t_k)``, the
    baseline hazard jump at the k-th distinct event time, and ``zbar[k] =
    S1(t_k) / S0(t_k)``, the risk-set covariate mean there (shape (m, p)).
    Every post-fit estimator is a running sum of these: the Breslow curve is
    ``cumsum(d_lambda)`` and the sensitivity curve ``A_n`` is
    ``cumsum(zbar * d_lambda)``.
    """
    sv = data.sorted_view
    s0 = agg.s0[sv.event_time_index]
    d_lambda = sv.event_counts / (s0 * np.exp(agg.log_scale))
    return d_lambda, agg.s1[sv.event_time_index] / s0[:, None]
