"""Independent oracles used by the test suite.

Everything here is deliberately written without touching the package's own
computational paths: plain counting for the no-covariate hazard estimator,
central finite differences for derivative checks, and scipy adaptive
quadrature for population integrals.
"""

import math

import numpy as np
from scipy.integrate import quad


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
            lam = float(truth.lambda0(np.array([t]))[0])
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
    for k, s in enumerate(event_times):
        s0, s1 = risk_sums(s)
        d_lambda[k] = np.sum(e & (t == s)) / s0
        zbar[k] = s1 / s0
    resid = np.zeros_like(z)
    xi = np.zeros((n, grid.size))
    for i in range(n):
        if e[i]:
            k = np.searchsorted(event_times, t[i])
            resid[i] += z[i] - zbar[k]
        for k, s in enumerate(event_times):
            if s <= t[i]:
                resid[i] -= w[i] * (z[i] - zbar[k]) * d_lambda[k]
        for g, x in enumerate(grid):
            q = sum(
                d_lambda[k] / (risk_sums(s)[0] / n)
                for k, s in enumerate(event_times)
                if s <= min(t[i], x)
            )
            xi[i, g] = -w[i] * q
            if e[i] and t[i] <= x:
                xi[i, g] += n / risk_sums(t[i])[0]
    return {
        "event_times": event_times,
        "d_lambda": d_lambda,
        "zbar": zbar,
        "cum_hazard": np.cumsum(d_lambda),
        "a_n": np.cumsum(zbar * d_lambda[:, None], axis=0),
        "score_residuals": resid,
        "xi": xi,
    }
