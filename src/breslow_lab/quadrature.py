"""Adaptive panel quadrature with cheap evaluation of the antiderivative.

The truth-model functionals need ``F(x) = int_lo^x f`` at thousands of
scattered points per replication, so plain adaptive quadrature per call is
out.  Instead the interval is split into panels refined until the
Gauss-Legendre value is stable under doubling the order; panel integrals are
then prefix-summed and an arbitrary ``F(x)`` costs one partial-panel rule.
"""

from __future__ import annotations

import math

import numpy as np

from .risk import _running_sums


class QuadratureError(RuntimeError):
    """Adaptive refinement failed to reach the requested tolerance."""


def _gauss_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


class PanelAntiderivative:
    """Cumulative integral of a vectorized integrand on [lo, hi].

    Panels are bisected until the order-n and order-2n Gauss values agree
    within the panel's share of ``atol``.  Evaluation maps each query into
    its panel and adds a partial-panel Gauss rule to the prefix sum, so the
    result is a smooth, high-accuracy antiderivative usable on arrays.
    """

    def __init__(self, f, lo: float, hi: float, *, atol: float = 1e-11,
                 order: int = 16, initial_panels: int = 16, max_panels: int = 20000):
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ValueError("need finite lo < hi")
        self.f = f
        self.lo = float(lo)
        self.hi = float(hi)
        self.atol = float(atol)
        self._nodes_lo, self._weights_lo = _gauss_rule(order)
        self._nodes_hi, self._weights_hi = _gauss_rule(2 * order)
        edges = np.linspace(lo, hi, initial_panels + 1)
        for _ in range(60):
            vals_lo = self._panel_integrals(edges, self._nodes_lo, self._weights_lo)
            vals_hi = self._panel_integrals(edges, self._nodes_hi, self._weights_hi)
            widths = np.diff(edges)
            budget = self.atol * widths / (self.hi - self.lo)
            bad = np.abs(vals_hi - vals_lo) > np.maximum(budget, 1e-16)
            if not bad.any():
                break
            if edges.size - 1 + bad.sum() > max_panels:
                raise QuadratureError(
                    f"quadrature did not converge below atol={self.atol} "
                    f"within {max_panels} panels"
                )
            mids = 0.5 * (edges[:-1][bad] + edges[1:][bad])
            edges = np.sort(np.concatenate([edges, mids]))
        else:
            raise QuadratureError("quadrature refinement loop did not terminate")
        self.edges = edges
        panel_vals = self._panel_integrals(edges, self._nodes_hi, self._weights_hi)
        prefix = _running_sums(panel_vals, np.arange(panel_vals.size))
        self._prefix = np.concatenate([[0.0], prefix])

    def _panel_integrals(self, edges, nodes, weights):
        a = edges[:-1][:, None]
        b = edges[1:][:, None]
        half = 0.5 * (b - a)
        pts = a + half * (nodes[None, :] + 1.0)
        vals = np.asarray(self.f(pts.ravel()), dtype=float).reshape(pts.shape)
        return (half[:, 0]) * (vals @ weights)

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
        half = 0.5 * (xq - a)
        pts = a[:, None] + half[:, None] * (self._nodes_hi[None, :] + 1.0)
        vals = np.asarray(self.f(pts.ravel()), dtype=float).reshape(pts.shape)
        partial = half * (vals @ self._weights_hi)
        out = self._prefix[idx] + partial
        return out if np.asarray(x).ndim else float(out[0])
