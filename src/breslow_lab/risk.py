"""Empirical risk-set functionals via suffix sums over sorted follow-up times.

For a coefficient vector ``beta`` the engine tabulates, at every distinct
follow-up time ``t_k``, sums over the covariates centered at their column
means ``zbar`` (``Zc = Z - zbar``, see ``SurvivalDataset.sorted_view``):

    s0[k] = sum_{T_j >= t_k} exp(beta'Zc_j)
    s1[k] = sum_{T_j >= t_k} Zc_j exp(beta'Zc_j)
    s2[k] = sum_{T_j >= t_k} Zc_j Zc_j' exp(beta'Zc_j)

Centering is the only scaling policy, as in ``coxph`` (Therneau & Grambsch,
*Modeling Survival Data*, 2000): the partial likelihood, its score and
information, and the score residuals are invariant to a constant shift of a
covariate and are read straight off these tables.  Outputs defined on the
raw scale (``phi_n``, ``d1_n``, ``d2_n``, the Breslow increments) carry the
factor ``exp(+-beta'zbar)``, which :func:`to_raw_scale` applies and checks.
Queries are O(log n) lookups for arbitrary ``x`` (weak inequality: ``k(x)``
is the first distinct time >= x).  Each table column is one running sum of
one contiguous addend column, ``w``, ``w Zc_j`` or ``w (Zc_i Zc_j)`` (``w =
exp(beta'Zc)``, ``i <= j``), in descending time order, summed with the
compensated Sum2 algorithm of Ogita, Rump & Oishi, "Accurate sum and dot
product" (SIAM J. Sci. Comput. 26, 2005): the result is as accurate as a
plain sum carried out in twice the working precision, so rate experiments at
n = 1e5 keep accumulation error far below 1e-12 relative.  A running sum
down a contiguous column is several times faster than one down a column of
an ``(n, k)`` stack.  ``w`` is exponentiated in ascending time order and then
reversed: numpy's exp of a reversed (strided) view rounds some entries
differently, which would change the tables' bits.  ``s1`` and ``s2`` are
built on first read, so a caller that reads only ``s0`` never pays for them.

A dataset keeps its last table (see :func:`build_aggregates`), so the fit and
every post-fit estimator at the same ``beta`` share one table, as ``coxph``
computes its risk sums once per coefficient vector.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .data import SurvivalDataset

# Largest exponent with a finite float64 exp().
EXP_OVERFLOW = 709.782712893384
_TINY = np.finfo(float).tiny
_MAX = np.finfo(float).max


class ExpOverflowError(OverflowError):
    """A value scaled by exp() leaves the float64 range."""


@dataclass(frozen=True)
class RiskAggregates:
    """Suffix-sum tables for one dataset at one beta.

    ``s0/s1/s2`` hold sums over the centered covariates ``Z - means`` of
    ``exp(beta'(Z - means))``; ``log_scale = beta'means`` is the log of the
    factor that takes ``s0`` back to the raw scale.  Ratio queries (s1/s0,
    s2/s0) and everything invariant to a covariate shift never see it.
    ``w`` holds the addends ``exp(beta'(Z - means))`` in descending time
    order; ``s1`` and ``s2`` come from one moment pass over them at the first
    read of either.  ``spread`` is ``ptp(beta'(Z - means))``, the spread of
    the linear predictor over the subjects.  Tables are shared between
    callers, so ``beta``, ``w`` and the sums are read-only.
    """

    beta: np.ndarray
    distinct_times: np.ndarray
    s0: np.ndarray
    n: int
    means: np.ndarray
    log_scale: float
    spread: float
    w: np.ndarray = field(repr=False)
    # Moment-pass inputs besides ``w``: sorted ``Zc`` and the risk-set ends.
    _z: np.ndarray = field(repr=False)
    _rows: np.ndarray = field(repr=False)

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        return _moment_sums(self.w, self._z, self._rows)

    s1 = property(lambda self: self._moments[0])
    s2 = property(lambda self: self._moments[1])


def _running_sums(addends: np.ndarray, rows) -> np.ndarray:
    """Compensated running sums of ``addends`` along axis 0, read at ``rows``.

    Sum2 of Ogita, Rump & Oishi: a running sum, the exact TwoSum rounding
    error of each of its additions, and the running sum of those errors added
    back at the rows read.  The errors are formed in place in one scratch
    array.  Columns of a 2-D input are summed in pairs, each pair viewed as
    one complex column (a C-contiguous input of even width is not copied; an
    odd width is padded with zeros): Sum2 only adds and subtracts, complex
    addition is IEEE addition of the real and the imaginary parts, so every
    column gets the bits it would get alone, and one pass carries two
    dependency chains.  The risk tables, the partial likelihood, score and
    information totals (``rows=-1``) and the quadrature prefix sums all use it.
    """
    width = addends.shape[1] if addends.ndim == 2 else None
    if width is not None:
        if width % 2:
            addends = np.concatenate([addends, np.zeros((addends.shape[0], 1))], axis=1)
        addends = np.ascontiguousarray(addends).view(np.complex128)
    total = np.cumsum(addends, axis=0)
    err = np.empty_like(total)
    err[:1] = 0.0
    # err[1:] holds the step each addition took, then its TwoSum error.
    step = np.subtract(total[1:], total[:-1], out=err[1:])
    tmp = total[1:] - step
    np.subtract(total[:-1], tmp, out=tmp)
    np.subtract(addends[1:], step, out=step)
    step += tmp
    np.cumsum(err, axis=0, out=err)
    sums = total[rows] + err[rows]
    return sums if width is None else sums.view(np.float64)[..., :width]


@lru_cache
def _upper_pairs(p: int):
    """Row and column indices ``(iu, ju)`` of the upper triangle of a p-by-p matrix."""
    pairs = np.triu_indices(p)
    for idx in pairs:
        idx.setflags(write=False)
    return pairs


def to_raw_scale(values, log_factor: float):
    """``values * exp(log_factor)``, checked to stay inside float64.

    Raises :class:`ExpOverflowError` when a result overflows or a nonzero
    value falls below the smallest normal float64; never returns NaN or a
    silent 0.  The factor is applied in two halves, so ``exp(log_factor)``
    itself may lie outside the float64 range when the product does not.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        half = np.exp(0.5 * log_factor)
        out = np.asarray(values) * half
        out *= half
    # NaN fails the first test; below-normal results beyond the zeros of
    # ``values`` fail the second.
    peak = max(out.max(initial=0.0), -out.min(initial=0.0))
    below_normal = np.count_nonzero((out > -_TINY) & (out < _TINY))
    if not (peak <= _MAX and below_normal == np.count_nonzero(values == 0)):
        raise ExpOverflowError(f"a value scaled by exp({log_factor!r}) leaves the float64 range")
    return out


# The last table built for each live dataset, as (beta bytes, table).  Keys
# are weak, so an entry dies with its dataset and never reaches a new one.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def build_aggregates(data: SurvivalDataset, beta) -> RiskAggregates:
    """Suffix-sum tables for ``data`` at ``beta``: one table per (dataset, beta).

    The addends are ``exp(beta'(Z - means))`` over the covariates centered at
    their column means, and ``log_scale = beta'means``.  A centered exponent
    above the float64 limit, or ``s0`` sums that overflow or underflow to
    zero, raise :class:`ExpOverflowError` (silent saturation would corrupt
    rate experiments); the fitter treats that as a failed trial point.  The
    moment sums ``s1`` and ``s2`` are built at their first read, which raises
    it when they overflow, as does every later read; the table stays kept.

    Each dataset keeps the last table built for it, keyed by the bytes of
    ``beta``; datasets are immutable, so a call at the same ``beta`` returns
    that table.  The fitter's last trial point is ``beta_hat``, so every
    post-fit estimator shares the fit's table.  Shared tables are read-only,
    and ``beta`` is copied, so later changes to the caller's array affect
    neither the table nor the key.  A build that raises is not kept; a
    ``beta`` that is not finite raises ``ValueError``.
    """
    beta = np.array(beta, dtype=float).reshape(-1)
    if beta.size != data.covariate_dim:
        raise ValueError(f"beta has length {beta.size}, expected {data.covariate_dim}")
    key = beta.tobytes()
    cached = _TABLES.get(data)
    if cached is not None and cached[0] == key:
        return cached[1]
    agg = _build_aggregates(data, beta)
    _TABLES[data] = (key, agg)
    return agg


def _build_aggregates(data: SurvivalDataset, beta: np.ndarray) -> RiskAggregates:
    if not np.isfinite(beta).all():
        raise ValueError(f"beta must be finite, got {beta.tolist()}")
    sv = data.sorted_view
    eta = sv.centered @ beta
    top = float(eta.max())
    if top > EXP_OVERFLOW:
        raise ExpOverflowError(f"exp overflow: beta'(Z - zbar) = {top!r} exceeds float64 range")
    rows = data.n - 1 - sv.group_starts
    with np.errstate(over="ignore", invalid="ignore"):
        # Suffix sums: running sums over the rows in descending time order;
        # the exp comes before the reversal (see the module docstring).
        w = np.ascontiguousarray(np.exp(eta)[::-1])
        s0 = _running_sums(w, rows)
    if not (np.isfinite(s0).all() and (s0 > 0).all()):
        raise ExpOverflowError(f"risk-set sums leave float64 range (max beta'(Z - zbar) = {top!r})")
    for arr in (beta, w, s0):
        arr.setflags(write=False)
    return RiskAggregates(
        beta=beta,
        distinct_times=sv.distinct_times,
        s0=s0,
        n=data.n,
        means=sv.means,
        log_scale=float(beta @ sv.means),
        spread=top - float(eta.min()),
        w=w,
        _z=sv.centered,
        _rows=rows,
    )


def _moment_sums(w: np.ndarray, z: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """``(s1, s2)``, one Sum2 pass per column ``w Zc_j`` and ``w (Zc_i Zc_j)``, ``i <= j``;
    raises :class:`ExpOverflowError` when a sum leaves float64."""
    p = z.shape[1]
    s1 = np.empty((rows.size, p))
    s2 = np.empty((rows.size, p, p))
    with np.errstate(over="ignore", invalid="ignore"):
        zr = np.ascontiguousarray(z[::-1].T)
        for j in range(p):
            s1[:, j] = _running_sums(w * zr[j], rows)
        for i, j in zip(*_upper_pairs(p)):
            zz = zr[i] * zr[j]
            zz *= w
            s2[:, i, j] = s2[:, j, i] = _running_sums(zz, rows)
    if not (np.isfinite(s1).all() and np.isfinite(s2).all()):
        raise ExpOverflowError("risk-set moment sums leave float64 range")
    for arr in (s1, s2):
        arr.setflags(write=False)
    return s1, s2


def _lookup(agg: RiskAggregates, table: np.ndarray, x):
    """Raw-scale row of ``table`` over n at the first distinct time >= x (0 past the last)."""
    x_arr = np.asarray(x, dtype=float)
    padded = np.concatenate([table, np.zeros((1,) + table.shape[1:])])
    out = to_raw_scale(padded[np.searchsorted(agg.distinct_times, x_arr)] / agg.n, agg.log_scale)
    return out if x_arr.ndim or out.ndim else float(out)


def phi_n(agg: RiskAggregates, x):
    """Weighted risk mass (1/n) sum_{T_j >= x} exp(beta'Z_j).

    Left-continuous and nonincreasing in ``x``; zero beyond the largest
    follow-up time.
    """
    return _lookup(agg, agg.s0, x)


def d1_n(agg: RiskAggregates, x):
    """Gradient of ``phi_n`` in beta: (1/n) sum_{T_j >= x} Z_j exp(beta'Z_j).

    Rebuilt from the centered sums as ``s1 + s0 means``, so, like ``d2_n``,
    its accumulation error is relative to ``s0 |means|``, not to the result.
    """
    return _lookup(agg, agg.s1 + agg.s0[:, None] * agg.means, x)


def d2_n(agg: RiskAggregates, x):
    """Hessian of ``phi_n`` in beta; symmetric positive semidefinite."""
    m = agg.means
    cross = agg.s1[:, :, None] * m
    raw = agg.s2 + cross + cross.transpose(0, 2, 1) + agg.s0[:, None, None] * np.outer(m, m)
    return _lookup(agg, raw, x)


def event_increments(data: SurvivalDataset, agg: RiskAggregates) -> np.ndarray:
    """Breslow increments ``d_k / S0(t_k)`` at the distinct follow-up times.

    The baseline hazard jump at the k-th distinct follow-up time on the raw
    scale, 0 where no event falls.  Every post-fit estimator is a running sum
    of these: the Breslow curve is ``cumsum(d_lambda)`` and the sensitivity
    curve ``A_n`` is ``cumsum(zbar * d_lambda)`` with the risk-set covariate
    mean ``zbar = S1/S0``, each read at the rows with ``event_counts > 0``.
    Reads ``s0`` only; ``event_counts / s0`` is the same on the centered
    scale.  Raises :class:`ExpOverflowError` when an increment leaves float64.
    """
    return to_raw_scale(data.sorted_view.event_counts / agg.s0, -agg.log_scale)
