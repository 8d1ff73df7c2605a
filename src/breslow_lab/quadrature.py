"""Adaptive panel quadrature with cheap evaluation of the antiderivative.

The truth-model functionals need ``F(x) = int_lo^x f`` at thousands of
scattered points per replication, so plain adaptive quadrature per call is
out.  Instead the interval is split once into panels, refined until the
Gauss-Legendre value is stable under doubling the order and a Chebyshev
interpolant of the integrand matches it at points outside the fit; panel
integrals are then prefix-summed.  An arbitrary ``F(x)`` is the prefix of
its panel plus the exactly integrated Chebyshev series, evaluated by
Clenshaw's recurrence without calling the integrand (Trefethen,
*Approximation Theory and Approximation Practice*, SIAM 2013).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import chebyshev

from .risk import _running_sums

# Chebyshev points of the first kind per panel (interpolant degree 32).
# They are interior, like the Gauss nodes, so an integrand singular at an
# endpoint of the interval is never evaluated there.
CHEB_POINTS = 33
_CHEB_NODES = chebyshev.chebpts1(CHEB_POINTS)
_VALUES_TO_COEFFS = np.linalg.inv(chebyshev.chebvander(_CHEB_NODES, CHEB_POINTS - 1))
# Values at the nodes -> coefficients of the antiderivative that vanishes at
# the panel's left end, on the reference interval [-1, 1].
_VALUES_TO_ANTI = chebyshev.chebint(np.eye(CHEB_POINTS), lbnd=-1) @ _VALUES_TO_COEFFS


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""


def _gauss_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


class PanelAntiderivative:
    """Cumulative integral of a vectorized integrand on [lo, hi].

    Build: a panel is accepted when its order-n and order-2n Gauss values
    agree within its share of ``atol`` and the degree-32 Chebyshev
    interpolant of the integrand, checked at the 3n Gauss nodes (none of
    them interpolation nodes), satisfies ``max |p - f| * width <= atol/10``.
    That check budget does not shrink with the panel, so rounding noise in
    the integrand cannot force endless bisection.  Other panels are
    bisected, up to ``max_panels``.

    Query: ``F(x)`` is the compensated prefix sum of the order-2n Gauss
    values of the panels left of ``x`` plus the interpolant integrated
    exactly from the panel's left end to ``x``; the integrand is not
    called.  ``F(lo)`` is exactly 0.0.

    Diagnostics, read-only and set at build: ``panels`` (panel count),
    ``max_gauss_gap`` (worst accepted ``|Gauss_2n - Gauss_n|``) and
    ``max_interp_error`` (worst accepted ``max |p - f| * width``), both in
    units of the integral.
    """

    def __init__(self, f, lo: float, hi: float, *, atol: float = 1e-11,
                 order: int = 16, initial_panels: int = 16, max_panels: int = 20000):
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ValueError("need finite lo < hi")
        self.lo = float(lo)
        self.hi = float(hi)
        self.atol = float(atol)
        nodes_lo, weights_lo = _gauss_rule(order)
        nodes_hi, weights_hi = _gauss_rule(2 * order)
        nodes = np.concatenate([nodes_lo, nodes_hi, _CHEB_NODES])
        cut_lo, cut_hi = order, 3 * order
        # Maps values at the Chebyshev points to the interpolant at the Gauss nodes.
        to_check = chebyshev.chebvander(nodes[:cut_hi], CHEB_POINTS - 1) @ _VALUES_TO_COEFFS

        # Only panels created by the last bisection are evaluated; accepted
        # ones keep their values.
        edges = np.linspace(lo, hi, initial_panels + 1)
        a, b = edges[:-1], edges[1:]
        accepted = []  # (left ends, Gauss values, antiderivative coefficients)
        n_accepted = 0
        gauss_gap = interp_error = 0.0
        for _ in range(60):
            half = 0.5 * (b - a)
            pts = (a + half)[:, None] + half[:, None] * nodes[None, :]
            vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
            val_lo = half * (vals[:, :cut_lo] @ weights_lo)
            val_hi = half * (vals[:, cut_lo:cut_hi] @ weights_hi)
            cheb = vals[:, cut_hi:]
            gap = np.abs(val_hi - val_lo)
            err = np.abs(cheb @ to_check.T - vals[:, :cut_hi]).max(axis=1) * (2.0 * half)
            budget = np.maximum(self.atol * (2.0 * half) / (self.hi - self.lo), 1e-16)
            # Written as "not within" so that a NaN fails the test.
            bad = ~((gap <= budget) & (err <= 0.1 * self.atol))
            good = ~bad
            if good.any():
                accepted.append((a[good], val_hi[good],
                                 half[good, None] * (cheb[good] @ _VALUES_TO_ANTI.T)))
                n_accepted += int(good.sum())
                gauss_gap = max(gauss_gap, float(gap[good].max()))
                interp_error = max(interp_error, float(err[good].max()))
            if not bad.any():
                break
            if n_accepted + 2 * int(bad.sum()) > max_panels:
                raise QuadratureError(
                    f"quadrature did not converge below atol={self.atol} "
                    f"within {max_panels} panels"
                )
            mids = 0.5 * (a[bad] + b[bad])
            a, b = np.concatenate([a[bad], mids]), np.concatenate([mids, b[bad]])
        else:
            raise QuadratureError("quadrature refinement loop did not terminate")
        starts, panel_vals, anti = (np.concatenate(parts) for parts in zip(*accepted))
        order_lr = np.argsort(starts)
        self.edges = np.append(starts[order_lr], self.hi)
        panel_vals = panel_vals[order_lr]
        prefix = _running_sums(panel_vals, np.arange(panel_vals.size))
        self._prefix = np.concatenate([[0.0], prefix])
        # Trailing terms whose summed size, a bound on what they add to any
        # query, is below atol/1000 are dropped from every panel.
        tail = np.cumsum(np.abs(anti).max(axis=0)[::-1])[::-1]
        degree = max(int(np.count_nonzero(tail > 1e-3 * self.atol)), 1)
        # One row per coefficient so that Clenshaw gathers contiguous rows.
        self._coeffs = np.ascontiguousarray(anti[order_lr, :degree].T)
        self._max_gauss_gap = gauss_gap
        self._max_interp_error = interp_error

    @property
    def panels(self) -> int:
        return self.edges.size - 1

    @property
    def max_gauss_gap(self) -> float:
        return self._max_gauss_gap

    @property
    def max_interp_error(self) -> float:
        return self._max_interp_error

    def __call__(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        if x_arr.size and (x_arr.min() < self.lo - 1e-12 or x_arr.max() > self.hi + 1e-12):
            raise ValueError(
                f"query outside [{self.lo}, {self.hi}]: "
                f"[{x_arr.min()}, {x_arr.max()}]"
            )
        xq = np.clip(x_arr, self.lo, self.hi)
        idx = np.clip(np.searchsorted(self.edges, xq, side="right") - 1, 0, self.edges.size - 2)
        a = self.edges[idx]
        t = np.clip(2.0 * (xq - a) / (self.edges[idx + 1] - a) - 1.0, -1.0, 1.0)
        # Clenshaw: b_k = c_k + 2 t b_{k+1} - b_{k+2}; the sum is
        # c_0 + t b_1 - b_2.
        two_t = 2.0 * t
        b1 = np.zeros_like(t)
        b2 = np.zeros_like(t)
        for row in self._coeffs[:0:-1]:
            b1, b2 = row[idx] + two_t * b1 - b2, b1
        out = self._prefix[idx] + (self._coeffs[0][idx] + t * b1 - b2)
        # The series vanishes at lo only up to truncation and rounding; pin
        # F(lo) = 0 so that a point's value does not depend on what shares
        # the call.
        out[xq == self.lo] = 0.0
        return out if np.asarray(x).ndim else float(out[0])
