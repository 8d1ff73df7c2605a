"""Adaptive panel quadrature with cheap evaluation of the antiderivative.

The truth-model functionals need ``F(x) = int_0^x f`` at thousands of
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
# Gauss-Legendre orders n and 2n per panel, and the panels of the first sweep.
GAUSS_ORDER = 16
INITIAL_PANELS = 16
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(GAUSS_ORDER)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(2 * GAUSS_ORDER)
_NODES = np.concatenate([_NODES_LO, _NODES_HI, _CHEB_NODES])  # where a panel is sampled
# Values at the Chebyshev points -> the interpolant at the 3n Gauss nodes.
_CHEB_TO_GAUSS = chebyshev.chebvander(_NODES[: 3 * GAUSS_ORDER], CHEB_POINTS - 1) @ _VALUES_TO_COEFFS
# Most panels a build may accept before it gives up.
MAX_PANELS = 20000
# Query points per block of the Clenshaw recurrence: a 16384-point float64
# temporary is 128 KiB, so a block's few temporaries stay in L2 while those
# of a whole query set (about 1e5 points at n = 1e5) do not.
_BLOCK_POINTS = 16384


class QuadratureError(ValueError):
    """Adaptive refinement failed to reach the requested tolerance."""


class PanelAntiderivative:
    """Cumulative integrals of a vectorized column integrand on [0, hi].

    The integrand returns a row of k values per point: k columns that share
    one set of panels (Chebfun's quasimatrix), with ``atol`` one tolerance
    per column.

    Build: from ``INITIAL_PANELS`` equal panels, a panel is accepted when,
    in every column, its order-n and order-2n Gauss values (n =
    ``GAUSS_ORDER``) agree within the panel's share of that column's
    ``atol`` and the degree-32 Chebyshev interpolant of the integrand,
    checked at the 3n Gauss nodes (none of them interpolation nodes),
    satisfies ``max |p - f| * width <= atol/10``.  That check budget does
    not shrink with the panel, so rounding noise in the integrand cannot
    force endless bisection.  Other panels are bisected, up to
    ``MAX_PANELS``.

    Query: ``F(x)`` at a 1-D ``x`` is the compensated prefix sum of the
    order-2n Gauss values of the panels left of ``x`` plus the interpolant
    integrated exactly from the panel's left end to ``x``; the integrand is
    not called.  A query in time order finds its points' panels by one
    search per panel edge, any other query by one search per point, and the
    recurrence runs over cache-sized blocks of ``_BLOCK_POINTS``; each value
    depends on its point alone, not on the order or the company of its
    call.  ``F(0)`` is exactly 0.0.  ``columns`` (an index, a slice or a
    list) picks the columns to evaluate; an index gives one value per point.

    Diagnostics, set at build: ``panels`` (panel count), ``max_gauss_gap``
    (worst accepted ``|Gauss_2n - Gauss_n|``) and ``max_interp_error``
    (worst accepted ``max |p - f| * width``), one per column in units of
    the integral.
    """

    def __init__(self, f, hi: float, *, atol):
        if not (math.isfinite(hi) and hi > 0.0):
            raise ValueError("need finite hi > 0")
        self.hi = float(hi)
        cut_lo, cut_hi = GAUSS_ORDER, 3 * GAUSS_ORDER

        # Only panels created by the last bisection are evaluated; accepted
        # ones keep their values.  Arrays are (column, panel, ...).
        edges = np.linspace(0.0, hi, INITIAL_PANELS + 1)
        a, b = edges[:-1], edges[1:]
        accepted = []  # (left ends, Gauss values by panel, antiderivative coefficients)
        n_accepted = 0
        for sweep in range(60):
            half = 0.5 * (b - a)
            pts = (a + half)[:, None] + half[:, None] * _NODES[None, :]
            vals = np.asarray(f(pts.ravel()), dtype=float)
            if sweep == 0:
                tol = np.broadcast_to(np.asarray(atol, dtype=float), vals.shape[1:])
                gauss_gap = interp_error = np.zeros(tol.size)
            vals = np.moveaxis(vals.reshape(*pts.shape, -1), 2, 0)
            val_lo = half * (vals[..., :cut_lo] @ _WEIGHTS_LO)
            val_hi = half * (vals[..., cut_lo:cut_hi] @ _WEIGHTS_HI)
            cheb = vals[..., cut_hi:]
            gap = np.abs(val_hi - val_lo)
            err = np.abs(cheb @ _CHEB_TO_GAUSS.T - vals[..., :cut_hi]).max(axis=2) * (2.0 * half)
            budget = np.maximum(tol[:, None] * (2.0 * half) / self.hi, 1e-16)
            # Written as "not within" so that a NaN fails the test.
            bad = ~((gap <= budget) & (err <= 0.1 * tol[:, None])).all(axis=0)
            good = ~bad
            if good.any():
                accepted.append((a[good], val_hi[:, good].T,
                                 half[good, None] * (cheb[:, good] @ _VALUES_TO_ANTI.T)))
                n_accepted += int(good.sum())
                gauss_gap = np.maximum(gauss_gap, gap[:, good].max(axis=1))
                interp_error = np.maximum(interp_error, err[:, good].max(axis=1))
            if not bad.any():
                break
            if n_accepted + 2 * int(bad.sum()) > MAX_PANELS:
                raise QuadratureError(
                    f"quadrature did not converge below atol={atol} "
                    f"within {MAX_PANELS} panels"
                )
            mids = 0.5 * (a[bad] + b[bad])
            a, b = np.concatenate([a[bad], mids]), np.concatenate([mids, b[bad]])
        else:
            raise QuadratureError("quadrature refinement loop did not terminate")
        starts, panel_vals, anti = zip(*accepted)
        starts = np.concatenate(starts)
        panel_vals = np.concatenate(panel_vals)
        anti = np.concatenate(anti, axis=1)
        order_lr = np.argsort(starts)
        self.edges = np.append(starts[order_lr], self.hi)
        prefix = _running_sums(panel_vals[order_lr], np.arange(order_lr.size))
        self._prefix = np.ascontiguousarray(np.concatenate([np.zeros((1, tol.size)), prefix]).T)
        # Per column, trailing terms whose summed size, a bound on what they
        # add to any query, is below atol/1000 are dropped from every panel;
        # one row per coefficient so that Clenshaw gathers contiguous rows.
        tail = np.cumsum(np.abs(anti).max(axis=1)[:, ::-1], axis=1)[:, ::-1]
        degrees = np.maximum(np.count_nonzero(tail > 1e-3 * tol[:, None], axis=1), 1)
        self._coeffs = [np.ascontiguousarray(c[order_lr, :d].T) for c, d in zip(anti, degrees)]
        self.atol, self.max_gauss_gap, self.max_interp_error = tol, gauss_gap, interp_error

    @property
    def panels(self) -> int:
        return self.edges.size - 1

    def __call__(self, x, columns):
        x = np.asarray(x, dtype=float)
        if x.size and (x.min() < -1e-12 or x.max() > self.hi + 1e-12):
            raise ValueError(f"query outside [0.0, {self.hi}]: [{x.min()}, {x.max()}]")
        picked = np.arange(len(self._coeffs))[columns]
        each = np.atleast_1d(picked)
        xq = np.clip(x, 0.0, self.hi)
        if np.all(xq[1:] >= xq[:-1]):
            # In time order, each panel's points follow from one search per
            # interior edge.
            bounds = np.concatenate(([0], np.searchsorted(xq, self.edges[1:-1], side="left"),
                                     [xq.size]))
            idx = np.repeat(np.arange(self.panels), bounds[1:] - bounds[:-1])
        else:
            idx = np.clip(np.searchsorted(self.edges, xq, side="right") - 1, 0, self.panels - 1)
        out = np.empty((each.size, xq.size))
        for lo in range(0, xq.size, _BLOCK_POINTS):
            b = slice(lo, lo + _BLOCK_POINTS)
            self._clenshaw(xq[b], idx[b], each, out[:, b])
        # Several columns are stored one per row (an empty selection too), so
        # each stays contiguous in the (points, columns) transpose.
        return out[0] if picked.ndim == 0 else out.T

    def _clenshaw(self, xq, idx, picked, out):
        """Values of the ``picked`` columns at points ``xq`` in panels ``idx``,
        written into the rows of ``out``."""
        a = self.edges[idx]
        t = np.clip(2.0 * (xq - a) / (self.edges[idx + 1] - a) - 1.0, -1.0, 1.0)
        # The series vanishes at 0 only up to truncation and rounding; F(0)
        # is pinned to 0 so that a point's value does not depend on what
        # shares the call.
        at_zero = xq == 0.0
        # Clenshaw, one 1-D pass per column: b_k = c_k + 2 t b_{k+1} - b_{k+2};
        # the sum is c_0 + t b_1 - b_2.
        two_t = 2.0 * t
        for row_out, j in zip(out, picked):
            coeffs = self._coeffs[j]
            b1 = np.zeros_like(t)
            b2 = np.zeros_like(t)
            for row in coeffs[:0:-1]:
                b1, b2 = row[idx] + two_t * b1 - b2, b1
            np.add(self._prefix[j][idx], coeffs[0][idx] + t * b1 - b2, out=row_out)
            row_out[at_zero] = 0.0
