"""Baseline cumulative hazard estimation and its coefficient sensitivity.

Two deliberately separate constructions of the same estimator are kept and
cross-checked in tests: the classical event-time sum with increments
``d_i / sum_{T_j >= t_i} exp(beta'Z_j)``, and the plug-in form that averages
``1 / phi_n(beta, T_i)`` over uncensored subjects.  Their agreement is an
algebraic identity, not an approximation, so any disagreement is a defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SurvivalDataset
from .risk import RiskAggregates, build_aggregates, event_increments, phi_n
from .stepfun import StepCurve


@dataclass(frozen=True)
class BaselineCumHazEstimate:
    """Step-function estimate of the baseline cumulative hazard.

    Jumps sit exactly at the distinct uncensored times; evaluation beyond the
    last follow-up time extends the last value (the plug-in form is undefined
    there).
    """

    curve: StepCurve


@dataclass(frozen=True)
class PluginACurve:
    """Sensitivity of the cumulative hazard estimate to the coefficients.

    One step curve with a column per covariate coordinate, jumping at the
    distinct event times; minus this curve is the beta gradient of the
    cumulative hazard estimate at fixed x.  Empty (0 columns) when the
    dataset has no covariates.
    """

    curve: StepCurve

    @property
    def is_empty(self) -> bool:
        return self.curve.cumulative_values.shape[1] == 0

    def values_at(self, x) -> np.ndarray:
        """Evaluate all coordinates; shape (len(x), p)."""
        return self.curve(np.atleast_1d(x))


def _cum_hazard(data: SurvivalDataset, agg: RiskAggregates) -> np.ndarray:
    """Breslow running sum on the distinct-time axis: 0, then ``cumsum`` of
    :func:`event_increments` (exact 0s at censored-only times).  Read at a grid's
    ``right`` bracket, the count of distinct times ``<= x``, it is the estimate at x."""
    return np.concatenate([[0.0], np.cumsum(event_increments(data, agg))])


def breslow_traditional(data: SurvivalDataset, beta) -> BaselineCumHazEstimate:
    """Event-time sum form: increments d_i over the raw risk-set sums."""
    sv = data.sorted_view
    values = _cum_hazard(data, build_aggregates(data, beta))[1:][sv.event_counts > 0]
    return BaselineCumHazEstimate(curve=StepCurve(sv.distinct_event_times, values))


def breslow_plugin(data: SurvivalDataset, beta) -> BaselineCumHazEstimate:
    """Plug-in form: (1/n) sum over events of 1 / phi_n(beta, T_i).

    Must agree with :func:`breslow_traditional` at every x; the two code
    paths are kept separate on purpose.
    """
    agg = build_aggregates(data, beta)
    sv = data.sorted_view
    ev_times = sv.times[sv.events]
    contributions = 1.0 / (data.n * phi_n(agg, ev_times))
    group = np.searchsorted(sv.distinct_event_times, ev_times)
    sums = np.bincount(group, weights=contributions, minlength=sv.distinct_event_times.size)
    curve = StepCurve(sv.distinct_event_times, np.cumsum(sums))
    return BaselineCumHazEstimate(curve=curve)


def a_n_curve(data: SurvivalDataset, beta) -> PluginACurve:
    """Plug-in sensitivity curve ``A_n(x) = sum_{t_k <= x} zbar(t_k) dL(t_k)``.

    ``zbar = S1/S0`` is the risk-set covariate mean and ``dL = d/S0`` the
    Breslow increment at the distinct event time ``t_k``; equivalently
    (1/n) sum over events with T_i <= x of d1_n/phi_n^2.  The curve has no
    columns when there are no covariates.
    """
    agg = build_aggregates(data, beta)
    d_lambda = event_increments(data, agg)
    zbar = agg.s1 / agg.s0[:, None] + agg.means
    sv = data.sorted_view
    values = np.cumsum(zbar * d_lambda[:, None], axis=0)[sv.event_counts > 0]
    curve = StepCurve(sv.distinct_event_times, values, monotone=False)
    return PluginACurve(curve=curve)
