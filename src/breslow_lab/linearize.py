"""Influence-function linearization of the baseline cumulative hazard.

The centered estimate decomposes, uniformly on a compact window [0, M] with
positive risk mass, as

    cum_haz_n(x) - cum_haz_0(x)
        = mean_i xi(T_i, Delta_i, Z_i; x)
          - (beta_hat - beta0)' A0(x)
          + r_n(x),

where the per-subject influence term is

    xi(t, delta, z; x) = -exp(beta0'z) * int_0^{min(x,t)} rate0/Phi du
                         + delta {t <= x} / Phi(beta0, t)

and r_n is the higher-order remainder.  This module evaluates xi both with
population plug-ins (truth mode: exact functionals of a TruthModel) and with
empirical plug-ins (fitted coefficients, step-function hazard, empirical risk
mass), composes the plug-in variance estimate, and computes the exact
algebraic decomposition of the centered estimate used to measure remainder
rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .breslow import PluginACurve, _cum_hazard
from .coxfit import CoxFit, _sorted_score_residuals
from .data import SurvivalDataset
from .risk import RiskAggregates, _running_sums, build_aggregates, to_raw_scale
from .truth import PHI_FLOOR, TruthModel

# Rows per block of the n-by-grid influence matrix build: a 512 x 64 float64
# block is 256 KiB, so a block and its temporaries stay in L2 while the whole
# matrix (4 MiB at n = 8000) does not.
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class InfluenceMatrix:
    """Per-subject influence values on a grid; entry (i, k) is xi_i(x_k).

    Row i has two forms only: ``after_i`` from its follow-up time on and
    ``-w_i q(x)`` before it.  The matrix is held in those factors, rows in
    time order: ``w`` and ``after`` per row, ``q`` and ``rows`` (the count of
    rows with time ``<= x``) per grid point, ``order`` (the subject of each
    row) and ``log_scale`` (entries are the factors' values times
    ``exp(-log_scale)``).  The n-by-g :attr:`values` are built only when
    read; the plug-in variance reads the factors alone.
    """

    grid: np.ndarray
    w: np.ndarray
    after: np.ndarray
    q: np.ndarray
    rows: np.ndarray
    order: np.ndarray
    log_scale: float

    @cached_property
    def values(self) -> np.ndarray:
        """The n-by-g matrix in subject order, filled in blocks of rows small
        enough to stay in cache; raises :class:`ExpOverflowError` when an
        entry leaves float64."""
        n = self.order.size
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(n)
        out = np.empty((n, self.grid.size))
        for lo in range(0, n, _BLOCK_ROWS):
            r = rank[lo : lo + _BLOCK_ROWS]
            block = _xi_matrix(r, self.w[r], self.rows, self.q, self.after[r])
            out[lo : lo + _BLOCK_ROWS] = to_raw_scale(block, -self.log_scale)
        return out


@dataclass(frozen=True)
class VarianceCurves:
    """Plug-in variance of the cumulative hazard estimate along the grid.

    ``total`` includes the coefficient-estimation contribution through the
    sensitivity curve; ``xi_only`` ignores it (exact for the no-covariate
    case).
    """

    grid: np.ndarray
    total: np.ndarray
    xi_only: np.ndarray


@dataclass(frozen=True)
class DecompositionReport:
    """Exact split of the centered estimate on a grid.

    ``t_n1`` is the cost of plugging fitted coefficients into the hazard
    estimate; ``t_n2`` the estimation error at the true coefficients, which
    splits algebraically as ``b_n + c_n + r_n3 + r_n4``; its linear term
    ``mean_xi = b_n + c_n`` is the truth-mode mean influence.  ``beta_term``
    is the first-order coefficient effect ``-(beta_hat-beta0)'A0(x)`` and the
    linearization remainder ``r_n = t_n1 + t_n2 - mean_xi - beta_term`` is
    ``t_n1 + r_n3 + r_n4 - beta_term`` up to rounding.
    """

    grid: np.ndarray
    t_n1: np.ndarray
    t_n2: np.ndarray
    b_n: np.ndarray
    c_n: np.ndarray
    r_n3: np.ndarray
    r_n4: np.ndarray
    r_n: np.ndarray
    mean_xi: np.ndarray
    beta_term: np.ndarray
    sup_norms: dict
    beta_hat: np.ndarray
    beta0: np.ndarray

    def identity_residual(self) -> float:
        """Max grid deviation of t_n2 from b_n + c_n + r_n3 + r_n4."""
        return float(
            np.max(np.abs(self.t_n2 - (self.b_n + self.c_n + self.r_n3 + self.r_n4)))
        )


def _as_grid(x_grid) -> np.ndarray:
    grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if grid.size == 0 or not np.all(np.isfinite(grid)) or np.any(grid < 0):
        raise ValueError("grid must be nonempty, finite, and nonnegative")
    return grid


def _supported_grid(data: SurvivalDataset, x_grid) -> np.ndarray:
    """:func:`_as_grid` for a grid that ends by the last follow-up time."""
    grid = _as_grid(x_grid)
    if float(grid.max()) > float(data.sorted_view.distinct_times[-1]):
        raise ValueError("grid point beyond the last follow-up time: empirical risk mass is zero")
    return grid


def _fitted_beta(data: SurvivalDataset, fit: CoxFit | None) -> np.ndarray:
    """The coefficients a post-fit estimator uses: none without covariates,
    else those of ``fit``, which must have converged."""
    if data.covariate_dim == 0:
        return np.zeros(0)
    if fit is None:
        raise ValueError("a converged fit is required when covariates are present")
    if not fit.converged:
        raise ValueError(f"fit did not converge (status {fit.status})")
    return fit.beta_hat


# ---------------------------------------------------------------------------
# Influence values


def _xi_matrix(rank, w, rows, q_x, after) -> np.ndarray:
    """``xi(t, delta, z; x)`` for a block of rows and every grid point.

    Entry (i, k) for row i and grid point x_k, given per-row arrays (the
    row's place in time order, relative risk ``w = e^{beta'z}`` and
    ``after``, the row's constant from its follow-up time on) and, per grid
    point, ``rows``, the count of rows with time ``<= x``, and ``q_x``, the
    path integral; population or empirical plug-ins alike.  Row i is ``-w_i
    q(x)`` before its follow-up time and ``after_i = delta_i / phi(t_i) - w_i
    q(t_i)`` from there on.
    """
    out = np.multiply.outer(w, q_x)
    np.subtract(0.0, out, out=out)  # -w q(x), with +0.0 where q(x) = 0
    np.copyto(out, after[:, None], where=rank[:, None] < rows)
    return out


def _bracket(sv, grid: np.ndarray):
    """Where each grid point falls among the distinct follow-up times.

    Returns ``(left, right)``: the index of the first distinct time ``>= x``
    and of the first ``> x``.  The one search every truth-functional query
    set needs; the rows with time ``<= x`` number ``append(group_starts,
    n)[right]``.
    """
    dt = sv.distinct_times
    left = np.searchsorted(dt, grid, side="left")
    right = left + (dt[np.minimum(left, dt.size - 1)] == grid)
    return left, right


def _window_grid(fixed: np.ndarray, data: SurvivalDataset, M: float):
    """``(grid, (left, right))``: the strictly increasing ``fixed`` grid merged
    with the distinct follow-up times, both up to ``min(M, last follow-up
    time)``, and the grid's :func:`_bracket`.

    Reciprocal-risk-mass integrands are undefined beyond the last follow-up
    time; on the (asymptotically negligible) event that the sample ends before
    M the sup is taken over the observable window instead.  The fixed points
    that are not distinct times go where one search of the distinct times
    puts them, and that search also gives the bracket: ``np.unique`` of the
    two and a search of every grid point, bit for bit, without either.
    """
    dt = data.sorted_view.distinct_times
    hi = min(M, float(dt[-1]))
    m = int(np.searchsorted(dt, hi, side="right"))
    fixed = fixed[fixed <= hi]
    at = np.searchsorted(dt, fixed, side="left")
    new = dt[at] != fixed
    at = at[new]
    is_time = np.ones(m + at.size, dtype=bool)
    is_time[at + np.arange(at.size)] = False
    grid = np.empty(is_time.size)
    grid[is_time] = dt[:m]
    grid[~is_time] = fixed[new]
    # ``left`` counts the distinct times before a grid point; a distinct time
    # k brackets as (k, k + 1), a fixed point inserted before it as (k, k).
    left = np.cumsum(is_time) - is_time
    return grid, (left, left + is_time)


def _event_weight_means(data: SurvivalDataset, truth: TruthModel, right) -> np.ndarray:
    """``s_phi(x) = mean_i delta_i {t_i <= x} / phi(t_i)`` for a grid bracket.

    ``right`` is the grid's bracket (see :func:`_bracket`).  ``1/phi`` is
    summed over the event rows only and read at the count of events at or
    before each grid point; censored rows would add exact zeros.  Raises
    ``ValueError`` when ``phi`` vanishes at an event.
    """
    sv = data.sorted_view
    phi = truth.phi(sv.times[sv.events])
    if np.any(phi <= 0):
        raise ValueError("event at or beyond the follow-up support of the design")
    prefix = np.concatenate([[0.0], np.cumsum(1.0 / phi)])
    return prefix[np.concatenate([[0], np.cumsum(sv.event_counts)])[right]] / data.n


def xi_truth(data: SurvivalDataset, truth: TruthModel, x_grid) -> InfluenceMatrix:
    """Influence matrix with population plug-ins, one row per subject.

    ``q`` is read in one query, at the follow-up times and the grid, so the
    truth model builds its antiderivative at most once.  Returned in its
    factors, like :func:`xi_plugin`'s, on the raw scale (``log_scale`` 0);
    reading ``values`` raises :class:`ExpOverflowError` when an entry is not
    a finite float64 (an event where ``phi`` vanishes).
    """
    grid = _as_grid(x_grid)
    t = data.times
    q = truth.hazard_over_phi(np.concatenate([np.minimum(t, float(grid.max())), grid]))
    q_t, q_x = q[: t.size], q[t.size :]
    w = np.exp(data.covariates @ truth.beta0)
    event_term = np.divide(1.0, truth.phi(t), out=np.zeros(data.n), where=data.events)
    after = event_term - w * q_t
    sv = data.sorted_view
    return InfluenceMatrix(grid=grid, w=w[sv.order], after=after[sv.order], q=q_x,
                           rows=_row_counts(sv, _bracket(sv, grid)[1]), order=sv.order,
                           log_scale=0.0)


def xi_truth_mean(data: SurvivalDataset, truth: TruthModel, x_grid) -> np.ndarray:
    """Column means of the truth-mode influence matrix, ``b_n + c_n``.

    Same values as ``xi_truth(...).values.mean(axis=0)``, in O((n + g) log n):
    averaging xi over the subjects and swapping the sum with the integral
    gives ``s_phi(x) - int_0^x Phi_n(beta0, u) rate0/Phi du``, the mean event
    weight at or before x minus one :func:`_risk_integrals` on the risk table
    at ``beta0``.  Past the last follow-up time the empirical risk mass is 0,
    so the grid may reach beyond it.  Raises ``ValueError`` when an event lies
    where the population risk mass vanishes.
    """
    return _xi_truth_mean(data, truth, _window(truth, data, ("q",), _as_grid(x_grid)))


def _xi_truth_mean(data: SurvivalDataset, truth: TruthModel, win: _Window) -> np.ndarray:
    """:func:`xi_truth_mean` on a window that holds ``q``."""
    i_v = _risk_integrals(build_aggregates(data, truth.beta0), win)["q"]
    return _event_weight_means(data, truth, win.right) - i_v


def xi_plugin(data: SurvivalDataset, fit: CoxFit | None, x_grid) -> InfluenceMatrix:
    """Influence matrix with empirical plug-ins.

    The path integral is replaced by the sum of hazard-estimate increments
    over the empirical risk mass; the event term uses the empirical risk mass
    at the subject's own time; both are read by distinct-time index.  ``fit``
    may be None only for covariate-free data; otherwise it must have
    converged.  Reads the fit's risk table at ``beta_hat`` and returns the
    matrix in its O(n + g) factors, building no n-by-g array; raises
    :class:`ExpOverflowError` exactly when an entry of ``values`` would leave
    float64, from a check of the same O(n + g) cost.
    """
    grid = _supported_grid(data, x_grid)
    beta = _fitted_beta(data, fit)
    sv = data.sorted_view
    # Every piece on the centered scale: xi is e^{-beta'means} times the same
    # expression in the centered risk table, so one checked factor at the end
    # takes it back to the raw scale.
    agg = build_aggregates(data, beta)
    d_lambda = sv.event_counts / agg.s0
    # q_prior[k] is q before the k-th distinct time, q_prior[k + 1] at it.
    q_prior = np.concatenate([[0.0], np.cumsum(d_lambda / (agg.s0 / data.n))])
    w = np.ascontiguousarray(agg.w[::-1])
    # After follow-up a row is (delta - w dLambda(t)) / phi(t) - w q(t-): the
    # own-time jump of q, of size about n / s0(t), is folded into the event
    # term instead of cancelling against it, and ``w d / s0`` is exactly 1
    # when the row is alone in its risk set.
    k = sv.group_of
    s0 = agg.s0[k]
    after = (sv.events - w * sv.event_counts[k] / s0) / (s0 / data.n) - w * q_prior[k]
    _, right = _bracket(sv, grid)
    infl = InfluenceMatrix(grid=grid, w=w, after=after, q=q_prior[right],
                           rows=_row_counts(sv, right), order=sv.order,
                           log_scale=agg.log_scale)
    _check_range(infl)
    return infl


def _row_counts(sv, right: np.ndarray) -> np.ndarray:
    """The count of rows with time ``<= x`` at each grid point, from the
    second half of the grid's :func:`_bracket`."""
    return np.append(sv.group_starts, sv.times.size)[right]


def _check_range(infl: InfluenceMatrix) -> None:
    """Raise :class:`ExpOverflowError` exactly when an entry of ``infl.values``
    leaves float64, in O(n + g).

    Scaling is monotone in an entry's size, so each form's extremes decide:
    ``after`` on the rows that reach a grid point, and, per grid point,
    ``w q`` at the largest and smallest ``w`` of the rows still at risk past
    it (a suffix max and min in time order).  Where the smallest product
    rounds to 0 but ``q`` does not, the smallest nonzero entry is elsewhere,
    and the entries themselves decide.
    """
    to_raw_scale(infl.after[: infl.rows.max()], -infl.log_scale)
    open_ = infl.rows < infl.w.size
    at, q = infl.rows[open_], infl.q[open_]
    w_desc = infl.w[::-1]
    hi = np.maximum.accumulate(w_desc)[::-1][at] * q
    lo = np.minimum.accumulate(w_desc)[::-1][at] * q
    if np.any((lo == 0) & (q > 0)):
        infl.values  # the per-entry check decides
    else:
        to_raw_scale(np.concatenate([lo, hi]), -infl.log_scale)


# ---------------------------------------------------------------------------
# Plug-in variance


def _prefix_sums(columns: list, rows: np.ndarray) -> np.ndarray:
    """``(k, g)``: each of the k columns summed over its first c entries, for
    each count c in ``rows``; one compensated running sum per column."""
    padded = np.zeros((len(columns), columns[0].size + 1))
    for out, column in zip(padded, columns):
        out[1:] = column
    return np.array([_running_sums(column, rows) for column in padded])


def variance_estimate(
    data: SurvivalDataset,
    infl: InfluenceMatrix,
    fit: CoxFit | None = None,
    a_curve: PluginACurve | None = None,
) -> VarianceCurves:
    """Pointwise plug-in variance of the cumulative hazard estimate.

    Composes the influence values with the coefficient estimator's linear
    expansion: subject i carries ``psi_i(x) = xi_i(x) - ell_i' A_n(x)`` where
    ``ell_i = n I^{-1} r_i`` is the information-scaled score residual.  With
    no covariates the sensitivity term vanishes and ``total == xi_only``.

    Both curves are sample variances (``ddof=1``) over n, read from the
    matrix's factors in O((n + g) p) without building ``infl.values``: a
    column's sum, its sum of squares and its cross-sums with the centered
    score residuals ``r_j`` are prefix sums of ``after``, ``after^2`` and
    ``after r_j`` and suffix sums of ``w``, ``w^2`` and ``w r_j`` over the
    rows in time order, read at each grid point's row count.  ``I^{-1}``
    then meets a g-by-p array, ``A_n`` on the grid.  The score residuals come
    from the fit's risk table at ``beta_hat``, in the matrix's row order
    (time order).  The sums differ from
    squaring the matrix's entries only in rounding, in the last bits.
    """
    if data.n < 2:
        raise ValueError("variance undefined for n < 2")
    n = data.n
    beta = _fitted_beta(data, fit)
    if beta.size == 0:
        r, u = np.zeros((n, 0)), np.zeros((infl.grid.size, 0))
    else:
        if a_curve is None or a_curve.is_empty:
            raise ValueError("a nonempty sensitivity curve is required with covariates")
        r = _sorted_score_residuals(data, beta)
        r -= r.mean(axis=0)
        try:
            # u_k = n I^{-1} A_n(x_k), so that ell_i' A_n(x_k) = r_i' u_k.
            u = n * np.linalg.solve(fit.information, a_curve.values_at(infl.grid).T).T
        except np.linalg.LinAlgError:
            raise ValueError("singular information") from None
    # Rows before row count c read ``after``, the rest ``-w q``: sums of the
    # first over the rows before c, of the second over the rows from c on.
    q, rows = infl.q, infl.rows
    a = infl.after[: rows.max()]
    w = infl.w[::-1]
    before = _prefix_sums([a, a * a, *(a * col[: a.size] for col in r.T)], rows)
    past = _prefix_sums([w, w * w, *(w * col[::-1] for col in r.T)], n - rows)
    # Sums over the centered-scale entries, each scaled to the raw scale.
    h = np.exp(-0.5 * infl.log_scale)
    s1 = (before[0] - q * past[0]) * h * h
    s2 = (before[1] + q * q * past[1]) * h * h * h * h
    cross = (before[2:] - q * past[2:]).T * h * h
    # The one-pass form loses little to cancellation: a column's mean is
    # small against its spread (a plug-in column sums to 0 exactly).  With r
    # centered, sum_i (xi_i - mean - r_i'u)^2 needs only the raw cross-sums.
    ss_xi = s2 - s1 * s1 / n
    ss_total = (ss_xi - 2.0 * np.einsum("kj,kj->k", u, cross)
                + np.einsum("kj,jl,kl->k", u, r.T @ r, u))
    scale = (n - 1) * n
    return VarianceCurves(grid=infl.grid, total=ss_total / scale, xi_only=ss_xi / scale)


# ---------------------------------------------------------------------------
# Exact decomposition of the centered estimate


@dataclass(frozen=True)
class _Window:
    """A grid, its :func:`_bracket` halves ``left`` and ``right``, and the
    truth's path integrals the caller named (``q``, ``H_uc``, ``A0``), by
    name: ``at_grid[name]`` at the grid and ``at_edges[name]`` at the edges
    of :func:`_risk_integrals`' pieces, one row per point."""

    grid: np.ndarray
    left: np.ndarray
    right: np.ndarray
    at_grid: dict
    at_edges: dict


def _window(truth: TruthModel, data: SurvivalDataset, names, grid: np.ndarray,
            bracket=None) -> _Window:
    """The :class:`_Window` of ``grid`` holding the path integrals ``names``,
    from one query; ``bracket`` is the grid's :func:`_bracket`, searched when
    not given (a :func:`_window_grid` comes with its own).

    The edges are 0, the distinct follow-up times before the grid maximum's
    piece (``left``) and the grid maximum.  A strictly increasing grid that
    holds those times, such as a :func:`_window_grid`, holds every edge (each
    path integral is exactly 0.0 at 0), so it is queried alone and its edges
    are read off it; any other grid is queried at the distinct points of the
    grid and the edges.  Each value is the one a query of its point alone
    would give (:class:`~breslow_lab.quadrature.PanelAntiderivative`).
    """
    left, right = _bracket(data.sorted_view, grid) if bracket is None else bracket
    blocks = {"q": [0], "H_uc": [1], "A0": list(range(2, 2 + truth.p))}
    columns = [c for name in names for c in blocks[name]]
    cut = int(left.max()) + 1
    # The grid points that are distinct follow-up times, in grid order.
    at = np.flatnonzero(right > left)[: cut - 1]
    if np.all(grid[1:] > grid[:-1]) and np.array_equal(left[at], np.arange(cut - 1)):
        f_grid = truth.path_integrals(grid, columns)
        f_edges = np.concatenate([np.zeros((1, len(columns))), f_grid[at], f_grid[-1:]])
    else:
        dt = data.sorted_view.distinct_times
        edges = np.concatenate([[0.0], dt[: cut - 1], [float(grid.max())]])
        points, inverse = np.unique(np.concatenate([edges, grid]), return_inverse=True)
        # Column-major, as a query's own result: the product with the A0
        # columns rounds differently on a row-major array.
        values = np.asfortranarray(truth.path_integrals(points, columns)[inverse])
        f_grid, f_edges = values[cut + 1 :], values[: cut + 1]
    at_grid, at_edges, k = {}, {}, 0
    for name in names:
        pick = slice(k, k + truth.p) if name == "A0" else k
        at_grid[name], at_edges[name] = f_grid[:, pick], f_edges[:, pick]
        k += len(blocks[name])
    return _Window(grid, left, right, at_grid, at_edges)


def _risk_integrals(agg: RiskAggregates, win: _Window) -> dict:
    """``int_0^x g dF`` on the window's grid for each of its path integrals
    ``q`` and ``H_uc``, by name: ``q`` against ``g = Phi_n`` of ``agg``,
    ``H_uc`` against ``1/Phi_n``.

    ``Phi_n`` is ``v[j]`` on ``(edges[j], edges[j + 1]]``, pieces between
    consecutive distinct follow-up times up to the grid maximum, with mass 0
    past the last one; a grid point ``x > 0`` lies in piece ``left``, its
    bracket.  Exact as a sum of antiderivative differences, read off the
    values at the grid and the edges; each integral is summed alone, bitwise
    as if asked alone.
    """
    left = win.left
    cut = int(left.max()) + 1
    v = np.append(to_raw_scale(agg.s0[:cut] / agg.n, agg.log_scale), 0.0)[:cut]
    out = {}
    for name in (n for n in ("q", "H_uc") if n in win.at_grid):
        g = v if name == "q" else 1.0 / v
        f = win.at_edges[name]
        prefix = np.concatenate([[0.0], np.cumsum(g * np.diff(f))])
        # prefix[left] + g[left] (f_grid - f[left]), built in place so that
        # fewer grid-sized temporaries are alive at once.
        integral = win.at_grid[name] - f[left]
        integral *= g[left]
        integral += prefix[left]
        np.copyto(integral, 0.0, where=win.grid == 0)
        out[name] = integral
    return out


def _t2_parts(data: SurvivalDataset, truth: TruthModel, win: _Window):
    """``(haz_n0, s_phi, lam0, integrals, r_n3)``: Breslow estimate at ``beta0``,
    event-weight means, ``cum_haz_0`` and :func:`_risk_integrals` on the
    window's grid, and ``r_n3``, which reads ``H_uc`` alone; the window must
    hold ``H_uc`` and end by the last follow-up time (:func:`_supported_grid`,
    :func:`_window_grid`)."""
    agg = build_aggregates(data, truth.beta0)
    integrals = _risk_integrals(agg, win)
    lam0 = truth.cum_hazard0(win.grid)
    s_phi = _event_weight_means(data, truth, win.right)
    haz_n0 = _cum_hazard(data, agg)[win.right]
    return haz_n0, s_phi, lam0, integrals, (haz_n0 - s_phi) - (integrals["H_uc"] - lam0)


def _t2_terms(data: SurvivalDataset, truth: TruthModel, win: _Window) -> dict:
    """Terms of the split of cum_haz_n(beta0, x) - cum_haz_0(x) on a window
    that holds ``q`` and ``H_uc``.

    Also returns ``mean_xi = b_n + c_n = s_phi - I_v``, bitwise the value of
    :func:`xi_truth_mean`.
    """
    haz_n0, s_phi, lam0, integrals, r_n3 = _t2_parts(data, truth, win)
    i_v, i_inv = integrals["q"], integrals["H_uc"]
    return {
        "haz_n_beta0": haz_n0,
        "t_n2": haz_n0 - lam0,
        "b_n": lam0 - i_v,
        "c_n": s_phi - lam0,
        "r_n3": r_n3,
        "r_n4": i_inv - 2.0 * lam0 + i_v,
        "mean_xi": s_phi - i_v,
    }


def _linearization_remainder(data: SurvivalDataset, truth: TruthModel, win: _Window,
                             beta_hat: np.ndarray, mean_xi: np.ndarray):
    """``(haz_hat, beta_term, r_n)`` on the window's grid at ``beta_hat``.

    ``haz_hat`` is the Breslow estimate at ``beta_hat``; ``mean_xi`` is the
    truth-mode mean influence on the grid (:func:`xi_truth_mean`),
    ``beta_term = -(beta_hat - beta0)' A0`` with the window's ``A0`` and
    ``r_n = (haz_hat - haz_0) - mean_xi - beta_term``.
    """
    grid = win.grid
    haz_hat = _cum_hazard(data, build_aggregates(data, beta_hat))[win.right]
    beta_term = (-win.at_grid["A0"] @ (beta_hat - truth.beta0) if truth.p
                 else np.zeros(grid.size))
    r_n = (haz_hat - truth.cum_hazard0(grid)) - mean_xi - beta_term
    return haz_hat, beta_term, r_n


def remainder_decomposition(
    data: SurvivalDataset,
    fit: CoxFit | None,
    truth: TruthModel,
    x_grid,
    *,
    beta_hat=None,
) -> DecompositionReport:
    """Exact decomposition of the centered hazard estimate on ``x_grid``.

    ``beta_hat`` overrides the fitted coefficients (forcing ``beta_hat =
    beta0`` zeroes ``t_n1`` and reduces the remainder to ``r_n3 + r_n4``);
    otherwise the coefficients are :func:`xi_plugin`'s.  The grid must end
    by the last follow-up time, with positive population risk mass.
    """
    grid = _supported_grid(data, x_grid)
    if beta_hat is None:
        beta_hat = _fitted_beta(data, fit)
    beta_hat = np.atleast_1d(np.asarray(beta_hat, dtype=float))
    win = _window(truth, data, ("q", "H_uc", "A0"), grid)
    arrays = _t2_terms(data, truth, win)
    haz_hat, arrays["beta_term"], arrays["r_n"] = _linearization_remainder(
        data, truth, win, beta_hat, arrays["mean_xi"])
    arrays["t_n1"] = haz_hat - arrays.pop("haz_n_beta0")
    sup_norms = {name: float(np.max(np.abs(val))) for name, val in arrays.items()}
    return DecompositionReport(grid=grid, sup_norms=sup_norms, beta_hat=beta_hat,
                               beta0=truth.beta0, **arrays)


def default_m_plugin(data: SurvivalDataset, beta) -> float:
    """Largest follow-up time with empirical risk mass >= ``PHI_FLOOR``."""
    agg = build_aggregates(data, beta)
    mass = to_raw_scale(agg.s0 / agg.n, agg.log_scale)
    ok = np.flatnonzero(mass >= PHI_FLOOR)
    if ok.size == 0:
        raise ValueError("empirical risk mass is below the floor everywhere")
    return float(agg.distinct_times[ok[-1]])
