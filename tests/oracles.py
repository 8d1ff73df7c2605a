"""Independent oracles used by the test suite.

Everything here is deliberately written without touching the package's own
computational paths: plain counting for the no-covariate hazard estimator,
explicit risk sets summed with ``math.fsum`` for the partial likelihood and
its information, central finite differences for derivative checks, scipy adaptive
quadrature for population integrals, and exact rational arithmetic for the
plug-in influence values.  The ``reference_*`` functions are the exception:
they reuse the package's truth functionals and risk table and redo only the
index bookkeeping, one search per index, so the package's single-bracket
bookkeeping can be checked against them bitwise.  ``xi_truth_value`` also
reads the truth functionals: it is the one-observation, one-point form of
the influence function that ``xi_truth`` vectorizes.  ``stacked_risk_sums``
reads only the sorted view and redoes the risk-table sums the way the
package once did, in one stack, so the columnar build can be checked
against it bitwise.  ``eager_sort_columns`` builds the sorted view's lazy
columns from the raw arrays the way the view once built them up front.
``row_loop_load_csv`` and ``row_loop_write_csv`` are the CSV reader and
writer as they were before they worked in blocks of columns: one row at a
time, ``float()`` per cell and one ``%`` template per sequence of cell types;
the reader also names the row of a time that is not positive and finite or
of a covariate that is not finite.
"""

import csv
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from breslow_lab import DataError, SurvivalDataset, build_aggregates, phi_n
from breslow_lab.risk import event_increments
from breslow_lab.stepfun import StepCurve


def nelson_aalen(times, events):
    """Counting-based cumulative hazard: sum of d_i / (# at risk)."""
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    order = np.argsort(t, kind="stable")
    t = t[order]
    e = e[order]
    uniq = np.unique(t)
    at_risk = len(t)
    jump_times = []
    increments = []
    for ut in uniq:
        mask = t == ut
        d = int(e[mask].sum())
        if d:
            jump_times.append(float(ut))
            increments.append(d / at_risk)
        at_risk -= int(mask.sum())
    return np.asarray(jump_times), np.cumsum(np.asarray(increments))


def central_diff_grad(f, beta, h=1e-5):
    beta = np.asarray(beta, dtype=float)
    grad = np.zeros_like(beta)
    for j in range(beta.size):
        up = beta.copy()
        dn = beta.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (f(up) - f(dn)) / (2 * h)
    return grad


def brute_force_score(times, events, covariates, beta):
    """Breslow-tie score from explicit risk-set masks, O(n^2)."""
    t = np.asarray(times, dtype=float)
    z = np.asarray(covariates, dtype=float)
    eta = z @ np.asarray(beta, dtype=float)
    w = np.exp(eta - eta.max())
    score = np.zeros(z.shape[1])
    for i in np.flatnonzero(events):
        at_risk = t >= t[i]
        score += z[i] - (w[at_risk] @ z[at_risk]) / w[at_risk].sum()
    return score


def brute_force_log_likelihood(times, events, covariates, beta):
    """Breslow-tie log partial likelihood from explicit risk-set masks, O(n^2).

    Each event adds its linear predictor minus the log of the sum of
    ``exp(beta'Z)`` over every subject still at risk at its time (tied
    events share that full risk set); the logs are shifted by the risk set's
    largest linear predictor and the terms summed with ``math.fsum``.
    """
    t = np.asarray(times, dtype=float)
    eta = np.asarray(covariates, dtype=float) @ np.asarray(beta, dtype=float)
    terms = []
    for i in np.flatnonzero(events):
        risk = eta[t >= t[i]]
        top = risk.max()
        terms.append(eta[i] - top - math.log(np.exp(risk - top).sum()))
    return math.fsum(terms)


def brute_force_information(times, events, covariates, beta):
    """Breslow-tie observed information from explicit risk sets, O(n^2).

    ``sum_k d_k (s2_k/s0_k - m_k m_k')`` over the distinct event times
    ``t_k`` with ``d_k`` events each and the risk set ``T_j >= t_k``, with
    ``m_k = s1_k/s0_k``.  Each risk set's term is its weighted covariance,
    ``sum w (Z - m)(Z - m)' / s0``, which equals ``s2/s0 - m m'`` and does not
    cancel when a covariate is shifted; every sum is a ``math.fsum``.  The
    linear predictors are taken relative to the first subject's, so a large
    shift of a covariate does not round them, and the weights ``exp(beta'Z)``
    are scaled by the largest one.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    z = np.asarray(covariates, dtype=float)
    eta = (z - z[0]) @ np.asarray(beta, dtype=float)
    w = np.exp(eta - eta.max())
    p = z.shape[1]
    terms = [[[] for _ in range(p)] for _ in range(p)]
    for tk in np.unique(t[e]):
        d = int(np.count_nonzero(e & (t == tk)))
        at_risk = t >= tk
        wk, zk = w[at_risk], z[at_risk]
        s0 = math.fsum(wk)
        centered = zk - [math.fsum(wk * zk[:, i]) / s0 for i in range(p)]
        for i in range(p):
            for j in range(p):
                terms[i][j].append(d * math.fsum(wk * centered[:, i] * centered[:, j]) / s0)
    return np.array([[math.fsum(terms[i][j]) for j in range(p)] for i in range(p)])


def central_diff_hessian(f, beta, h=1e-4):
    beta = np.asarray(beta, dtype=float)
    p = beta.size
    hess = np.zeros((p, p))
    f0 = f(beta)
    for i in range(p):
        for j in range(i, p):
            if i == j:
                up = beta.copy()
                dn = beta.copy()
                up[i] += h
                dn[i] -= h
                hess[i, i] = (f(up) - 2 * f0 + f(dn)) / h**2
            else:
                pp = beta.copy(); pm = beta.copy(); mp = beta.copy(); mm = beta.copy()
                pp[[i, j]] += h
                pm[i] += h; pm[j] -= h
                mp[i] -= h; mp[j] += h
                mm[[i, j]] -= h
                hess[i, j] = hess[j, i] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4 * h**2)
    return hess


def quad_expectation(truth, f, *, limit=400, points=None):
    """E[f(T, Delta, Z)] under a truth model, by per-atom scipy quadrature.

    For each covariate atom z the follow-up pair (T, Delta) has event part
    ``rate0(t) e^{b'z} exp(-Lam0(t) e^{b'z}) S_C(t)`` and censored part
    ``f_C(t) exp(-Lam0(t) e^{b'z})`` on (0, tau_c).
    """
    tau = truth.censor_upper
    weights, zs = truth.covariate_law.atoms()
    total = 0.0
    for w, z in zip(weights, zs):
        r = float(np.exp(z @ truth.beta0)) if truth.p else 1.0

        def surv(t):
            return np.exp(-float(truth.cum_hazard0(t)) * r)

        def event_part(t):
            lam = float(truth.baseline.rate(np.array([t]))[0])
            return f(t, True, z) * lam * r * surv(t) * (1.0 - t / tau)

        def censor_part(t):
            return f(t, False, z) * (1.0 / tau) * surv(t)

        kw = {"limit": limit}
        if points is not None:
            kw["points"] = points
        total += w * (quad(event_part, 0.0, tau, **kw)[0] + quad(censor_part, 0.0, tau, **kw)[0])
    return total


def gauss_antiderivative(f, edges, x, *, order=32):
    """``int_{edges[0]}^x f`` on a fixed panel grid by Gauss-Legendre rules.

    Whole panels left of ``x`` are summed with ``math.fsum``; the partial
    panel ``[edge, x]`` gets its own order-``order`` rule, so every query
    calls ``f`` afresh.  No refinement and no interpolation: on a grid fine
    enough for the integrand this is accurate to rounding.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.asarray(edges, dtype=float)
    x = np.asarray(x, dtype=float)

    def rule(a, b):
        half = 0.5 * (b - a)
        pts = a[:, None] + half[:, None] * (nodes[None, :] + 1.0)
        vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
        return half * (vals @ weights)

    panels = rule(edges[:-1], edges[1:])
    prefix = np.array([math.fsum(panels[:k]) for k in range(panels.size + 1)])
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, edges.size - 2)
    return prefix[idx] + rule(edges[idx], x)


def quad_piecewise(f, lo, hi, breakpoints, *, limit=200):
    """Adaptive quadrature split at the integrand's jump points."""
    cuts = [lo] + sorted(b for b in breakpoints if lo < b < hi) + [hi]
    return sum(
        quad(f, a, b, limit=limit)[0] for a, b in zip(cuts[:-1], cuts[1:]) if b > a
    )


def brute_force_post_fit(times, events, covariates, beta, grid):
    """Post-fit estimators straight from their risk-set definitions, O(n^2).

    Loops over the distinct event times ``t_k`` and the risk-set masks
    ``times >= t_k``; no suffix sums.  Returns a dict with the event times,
    the Breslow increments ``d_lambda = d_k / S0(t_k)``, the risk-set means
    ``zbar = S1(t_k) / S0(t_k)``, the Breslow curve and ``A_n`` at the event
    times, the n-by-p score residuals, and the plug-in influence matrix on
    ``grid`` (``phi_n = S0 / n``).
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(events, dtype=bool)
    z = np.asarray(covariates, dtype=float).reshape(t.size, -1)
    beta = np.asarray(beta, dtype=float)
    grid = np.asarray(grid, dtype=float)
    n = t.size
    w = np.exp(z @ beta)

    def risk_sums(s):
        mask = t >= s
        return w[mask].sum(), (w[mask, None] * z[mask]).sum(axis=0)

    event_times = np.unique(t[e])
    d_lambda = np.empty(event_times.size)
    zbar = np.empty((event_times.size, z.shape[1]))
    phi = np.empty(event_times.size)
    for k, s in enumerate(event_times):
        s0, s1 = risk_sums(s)
        d_lambda[k] = np.sum(e & (t == s)) / s0
        zbar[k] = s1 / s0
        phi[k] = s0 / n
    resid = np.zeros_like(z)
    xi = np.zeros((n, grid.size))
    for i in range(n):
        if e[i]:
            k = np.searchsorted(event_times, t[i])
            resid[i] += z[i] - zbar[k]
        for k, s in enumerate(event_times):
            if s <= t[i]:
                resid[i] -= w[i] * (z[i] - zbar[k]) * d_lambda[k]
        own_s0 = risk_sums(t[i])[0]
        for g, x in enumerate(grid):
            q = sum(
                d_lambda[k] / phi[k]
                for k, s in enumerate(event_times)
                if s <= min(t[i], x)
            )
            xi[i, g] = -w[i] * q
            if e[i] and t[i] <= x:
                xi[i, g] += n / own_s0
    return {
        "event_times": event_times,
        "d_lambda": d_lambda,
        "zbar": zbar,
        "cum_hazard": np.cumsum(d_lambda),
        "a_n": np.cumsum(zbar * d_lambda[:, None], axis=0),
        "score_residuals": resid,
        "xi": xi,
    }


def exact_xi_plugin(times, events, covariates, beta, grid):
    """Plug-in influence matrix in exact rational arithmetic, O(n^2) per point.

    The relative risks ``exp(beta'z_i)`` are rounded to float once; from
    there the risk sums ``S0``, the Breslow increments ``d / S0``, the path
    integral ``q(x) = sum_{s <= x} (d_s / S0(s)) / (S0(s) / n)`` and the
    event term ``n / S0(t_i)`` are ``Fraction``s, and only each entry
    ``-w_i q(min(t_i, x)) + delta_i {t_i <= x} n / S0(t_i)`` is rounded.
    """
    t = [float(x) for x in times]
    e = [bool(x) for x in events]
    z = np.asarray(covariates, dtype=float).reshape(len(t), -1)
    w = [Fraction(float(x)) for x in np.exp(z @ np.asarray(beta, dtype=float))]
    n = len(t)

    def s0(s):
        return sum(wj for tj, wj in zip(t, w) if tj >= s)

    q_jump = {}
    for s in sorted({ti for ti, ei in zip(t, e) if ei}):
        d = sum(1 for ti, ei in zip(t, e) if ei and ti == s)
        q_jump[s] = Fraction(d) / s0(s) / (s0(s) / n)
    out = np.empty((n, len(grid)))
    for i in range(n):
        for g, x in enumerate(grid):
            value = -w[i] * sum(j for s, j in q_jump.items() if s <= min(t[i], x))
            if e[i] and t[i] <= x:
                value += n / s0(t[i])
            out[i, g] = float(value)
    return out


def xi_truth_value(truth, t, delta, z, x):
    """Influence of one observation at one point, with population plug-ins.

    The scalar form of the influence function, one observation at a time,
    from the truth model's ``phi`` and ``hazard_over_phi``.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    eta = float(z @ truth.beta0) if truth.p else 0.0
    integral = truth.hazard_over_phi(min(x, t)) if min(x, t) > 0 else 0.0
    event = 1.0 / truth.phi(t) if (delta and t <= x) else 0.0
    return float(-np.exp(eta) * integral + event)


def _reference_pieces(agg, grid):
    """Edges of the pieces on which the risk mass is constant, and the mass.

    The pieces run from 0 through the distinct follow-up times, with one more
    piece of mass 0 when the grid reaches past the last of them, and the last
    piece is cut at the grid maximum.  The mass comes from ``phi_n`` lookups.
    """
    edges = np.concatenate([[0.0], agg.distinct_times])
    v = phi_n(agg, agg.distinct_times)
    hi = float(grid.max())
    if hi > edges[-1]:
        edges, v = np.append(edges, hi), np.append(v, 0.0)
    cut = int(np.searchsorted(edges, hi, side="left"))
    edges = edges[: cut + 1].copy()
    edges[-1] = min(edges[-1], hi)
    return edges, v[:cut]


def _reference_integral(edges, gvals, f, grid):
    """``int_0^x g df`` for ``g = gvals[j]`` on piece j, every point searched."""
    if gvals.size == 0:
        return np.zeros(grid.size)
    f_edges, f_grid = f(edges), f(grid)
    prefix = np.concatenate([[0.0], np.cumsum(gvals * np.diff(f_edges))])
    j = np.searchsorted(edges, grid, side="left") - 1
    jj = np.clip(j, 0, gvals.size - 1)
    out = prefix[jj] + gvals[jj] * (f_grid - f_edges[jj])
    return np.where(j >= 0, out, 0.0)


def _reference_s_phi(data, truth, grid):
    sv = data.sorted_view
    event_weight = np.where(sv.events, 1.0 / truth.phi(sv.times), 0.0)
    prefix_ev = np.concatenate([[0.0], np.cumsum(event_weight)])
    return prefix_ev[np.searchsorted(sv.times, grid, side="right")] / data.n


def reference_t2_terms(data, truth, grid):
    """The split of ``_t2_terms`` with one independent search per index.

    Bookkeeping only: the truth antiderivatives, the risk table and the
    Breslow increments are the package's, but every index into the distinct
    times, the sorted rows and the event times comes from its own
    ``searchsorted`` (the piece of each grid point, the rows at or before
    it, the Breslow step), the risk mass from ``phi_n`` lookups, and every
    antiderivative is evaluated at all edges and all grid points.  The
    package derives all of these from one bracket and must agree bitwise.
    """
    agg = build_aggregates(data, truth.beta0)
    edges, v = _reference_pieces(agg, grid)
    i_v = _reference_integral(edges, v, truth.hazard_over_phi, grid)
    i_inv = _reference_integral(edges, 1.0 / v, truth.h_uc, grid)
    lam0 = truth.cum_hazard0(grid)
    s_phi = _reference_s_phi(data, truth, grid)
    d_lambda = event_increments(data, agg)
    haz_n0 = StepCurve(data.sorted_view.distinct_times, np.cumsum(d_lambda))(grid)
    return {
        "haz_n_beta0": haz_n0,
        "t_n2": haz_n0 - lam0,
        "b_n": lam0 - i_v,
        "c_n": s_phi - lam0,
        "r_n3": (haz_n0 - s_phi) - (i_inv - lam0),
        "r_n4": i_inv - 2.0 * lam0 + i_v,
        "mean_xi": s_phi - i_v,
    }


def reference_xi_truth_mean(data, truth, grid):
    """``xi_truth_mean`` as ``s_phi - I_v`` with the bookkeeping above.

    The grid may reach past the last follow-up time, where the risk mass is
    0; ``h_uc`` is not needed, so no reciprocal of that mass is formed.
    """
    agg = build_aggregates(data, truth.beta0)
    edges, v = _reference_pieces(agg, grid)
    i_v = _reference_integral(edges, v, truth.hazard_over_phi, grid)
    return _reference_s_phi(data, truth, grid) - i_v


def stacked_risk_sums(data, beta):
    """``(s0, s1, s2)`` from one ``(n, k)`` addend stack and an axis-0 Sum2.

    The stack is ``[w, w Zc_j, w (Zc_i Zc_j)]`` over the centered covariates
    of the sorted view, with ``w = exp(beta'Zc)`` taken before the rows are
    reversed into descending time order; the compensated running sum (Ogita,
    Rump & Oishi) forms each TwoSum error from the previous running total.
    """
    sv = data.sorted_view
    p = data.covariate_dim
    z = sv.centered
    iu, ju = np.triu_indices(p)
    w = np.exp(z @ np.asarray(beta, dtype=float))
    addends = np.column_stack([w, w[:, None] * z, w[:, None] * (z[:, iu] * z[:, ju])])[::-1]
    total = np.cumsum(addends, axis=0)
    prev = np.concatenate([np.zeros_like(total[:1]), total[:-1]])
    step = total - prev
    err = (prev - (total - step)) + (addends - step)
    rows = data.n - 1 - sv.group_starts
    table = total[rows] + np.cumsum(err, axis=0)[rows]
    s2 = np.empty((rows.size, p, p))
    s2[:, iu, ju] = s2[:, ju, iu] = table[:, 1 + p:]
    return table[:, 0], table[:, 1:1 + p], s2


def eager_sort_columns(data):
    """``distinct_event_times`` and ``event_cov_sums``, built
    up front from the raw arrays with a stable argsort, as the sorted view
    built them before they were read lazily."""
    order = np.argsort(data.times, kind="stable")
    times = data.times[order]
    events = data.events[order]
    covs = data.covariates[order] - data.covariates.mean(axis=0)
    is_start = np.concatenate([[True], times[1:] != times[:-1]])
    group_of = np.cumsum(is_start) - 1
    distinct = times[is_start]
    ev_groups_per_row = group_of[events]
    d_counts = np.bincount(ev_groups_per_row, minlength=distinct.size)
    sums = np.zeros((distinct.size, data.covariate_dim))
    for col in range(data.covariate_dim):
        sums[:, col] = np.bincount(
            ev_groups_per_row, weights=covs[events, col], minlength=distinct.size
        )
    return {
        "distinct_event_times": distinct[d_counts > 0],
        "event_cov_sums": sums,
    }


_CSV_TRUE = {"1", "true"}
_CSV_FALSE = {"0", "false"}


def _expected_header(p: int) -> list[str]:
    return ["time", "event"] + [f"z{i}" for i in range(1, p + 1)]


def row_loop_load_csv(path) -> SurvivalDataset:
    """Load a dataset from CSV with header ``time,event,z1,...,zp``.

    `p = 0` (header ``time,event``) is accepted.  The event column must be
    one of ``0``, ``1``, ``true``, ``false``.  Malformed rows are reported
    with their 1-based data-row number.  A leading UTF-8 byte-order mark
    is skipped.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        p = len(header) - 2
        if p < 0 or header != _expected_header(p):
            raise DataError(f"{path}: header must be time,event,z1,...,zp; got {header!r}")
        times, events, covs = [], [], []
        for i, cells in enumerate(reader, start=1):
            if not cells or all(not c.strip() for c in cells):
                continue
            if len(cells) != p + 2:
                raise DataError(f"{path}: row {i}: expected {p + 2} fields, got {len(cells)}")
            try:
                times.append(float(cells[0]))
            except ValueError:
                raise DataError(f"{path}: row {i}: bad time value {cells[0]!r}") from None
            if np.isnan(times[-1]) or np.isinf(times[-1]) or times[-1] <= 0:
                raise DataError(f"{path}: row {i}: follow-up time must be positive and finite, "
                                f"got {times[-1]}")
            ev_token = cells[1].strip().lower()
            if ev_token in _CSV_TRUE:
                events.append(True)
            elif ev_token in _CSV_FALSE:
                events.append(False)
            else:
                raise DataError(f"{path}: row {i}: bad event value {cells[1]!r}")
            try:
                covs.extend(map(float, cells[2:]))
            except ValueError:
                raise DataError(f"{path}: row {i}: bad covariate value") from None
            if np.isnan(covs[len(covs) - p:]).any() or np.isinf(covs[len(covs) - p:]).any():
                raise DataError(f"{path}: row {i}: covariates must be finite")
    if not times:
        raise DataError(f"{path}: no data rows")
    try:
        return SurvivalDataset(times, events, np.reshape(covs, (len(times), p)))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def row_loop_write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` as CSV with LF line endings.

    Floats are written with 17 significant digits (lossless), everything
    else with ``str``, by one ``%`` template per sequence of cell types.
    """
    lines = [",".join(header)]
    templates: dict[tuple, str] = {}
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        if types not in templates:
            templates[types] = ",".join("%.17g" if issubclass(t, float) else "%s" for t in types)
        lines.append(templates[types] % row)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
