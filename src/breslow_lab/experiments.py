"""Seeded Monte Carlo experiments that measure convergence rates.

Each experiment simulates datasets of increasing size from a truth model,
tracks the sup over a grid of a centered quantity, and fits a least-squares
slope to (log n, log mean sup).  Boundedness-in-probability claims are
operationalized two ways: the slope band, and stability across n of the
median of the rate-normalized statistic.

Replication r at sample size n uses the generator seeded by
``SeedSequence([seed, n, r])``, so results are bit-reproducible from the
master seed and independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# Loaded with the package, not on the first replication: numpy.random's module
# objects would otherwise land among that replication's arrays and keep the
# heap they free resident for the rest of the process.
from numpy.random import SeedSequence

from .coxfit import fit_mple
from .data import DataError, SurvivalDataset
from .linearize import _linearization_remainder, _t2_parts, _window, _window_grid, _xi_truth_mean
from .risk import build_aggregates, d1_n, phi_n
from .truth import PHI_FLOOR, TruthModel, generate_dataset

# Fraction of replications allowed to fail (draws with no events, non-converged
# fits) before the whole experiment is declared invalid.
EXCLUSION_CAP = 0.01

# Points of the fixed grid on [0, M], and the rate normalization the
# remainder claims use unless told otherwise.
GRID_POINTS = 512
A_N = "1/log n"

A_N_CHOICES = {
    A_N: lambda n: 1.0 / math.log(n),
    "1/sqrt(log n)": lambda n: 1.0 / math.sqrt(math.log(n)),
    "const": lambda n: 1.0,
}


def _a_n_choice(label: str) -> str:
    if label not in A_N_CHOICES:
        raise ValueError(f"unknown a_n choice {label!r}; options: {sorted(A_N_CHOICES)}")
    return label


class ExperimentValidityError(RuntimeError):
    """Too many replications were excluded; results would be biased."""


def replication_seed(seed: int, n: int, rep: int) -> SeedSequence:
    """Documented split function: child stream for (sample size, replication)."""
    return SeedSequence([int(seed), int(n), int(rep)])


def fit_loglog_slope(sample_sizes, values) -> tuple[float, float]:
    """OLS slope and standard error of log(values) on log(sample_sizes)."""
    x = np.log(np.asarray(sample_sizes, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    coeffs, residuals, *_ = np.polyfit(x, y, 1, full=True)
    slope = float(coeffs[0])
    k = x.size
    if k > 2 and residuals.size:
        sigma2 = float(residuals[0]) / (k - 2)
        se = math.sqrt(sigma2 / float(np.sum((x - x.mean()) ** 2)))
    else:
        se = float("nan")
    return slope, se


@dataclass(frozen=True)
class QuantitySummary:
    """Per-n summaries of one tracked sup-norm."""

    mean: np.ndarray
    median: np.ndarray
    q10: np.ndarray
    q90: np.ndarray
    slope: float
    slope_stderr: float


@dataclass(frozen=True)
class RateExperimentResult:
    claim: str
    sample_sizes: tuple[int, ...]
    replications: int
    seed: int
    a_n_label: str
    grid_points: int
    M: float
    quantities: dict[str, QuantitySummary]
    raw: dict[str, np.ndarray]          # quantity -> (len(sizes), reps), NaN = excluded
    excluded: tuple[int, ...]
    normalized_median: np.ndarray | None = None  # median of a_n * n * sup per n

    @property
    def fitted_slope(self) -> float:
        """Slope of the first tracked quantity, the one ``normalized_median`` reads."""
        return next(iter(self.quantities.values())).slope

    def normalized_stability_ratio(self) -> float:
        """Max/min across n of the normalized-statistic medians."""
        if self.normalized_median is None:
            raise ValueError("experiment does not track a normalized statistic")
        med = self.normalized_median
        return float(med.max() / med.min())

    def to_dict(self) -> dict:
        def num(v):
            # JSON has no NaN; an undefined standard error serializes as null.
            v = float(v)
            return v if math.isfinite(v) else None

        out = {
            "claim": self.claim,
            "sample_sizes": list(self.sample_sizes),
            "replications": self.replications,
            "seed": self.seed,
            "a_n": self.a_n_label,
            "grid_points": self.grid_points,
            "M": self.M,
            "fitted_slope": num(self.fitted_slope),
            "excluded": list(self.excluded),
            "quantities": {
                name: {
                    "mean_sup": [num(v) for v in s.mean],
                    "median_sup": [num(v) for v in s.median],
                    "q10_sup": [num(v) for v in s.q10],
                    "q90_sup": [num(v) for v in s.q90],
                    "slope": num(s.slope),
                    "slope_stderr": num(s.slope_stderr),
                }
                for name, s in sorted(self.quantities.items())
            },
        }
        if self.normalized_median is not None:
            out["normalized_median"] = [float(v) for v in self.normalized_median]
            out["normalized_stability_ratio"] = self.normalized_stability_ratio()
        return out


# Most rows a simulated sample may have (32 MiB per float64 column): each of
# rate-lab's sample sizes, and ``--n`` of ``influence`` and ``decompose``.
MAX_SIMULATED_N = 2**22

# Most replications per sample size (8 MiB per float64 column of the raw
# per-replication tables).
MAX_REPLICATIONS = 2**20


def _validate_design(sample_sizes, replications: int):
    sizes = tuple(int(n) for n in sample_sizes)
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sample_sizes must be at least two strictly increasing integers")
    if sizes[0] < 2:
        raise ValueError(f"sample_sizes must be at least 2, got {sizes[0]}")
    if sizes[-1] > MAX_SIMULATED_N:
        raise ValueError(f"sample_sizes must be at most {MAX_SIMULATED_N}, got {sizes[-1]}")
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    if replications > MAX_REPLICATIONS:
        raise ValueError(f"replications must be at most {MAX_REPLICATIONS}, got {replications}")
    return sizes


def _eval_grid(fixed: np.ndarray, data: SurvivalDataset, M: float) -> np.ndarray:
    """Fixed grid plus the data's jump points and the float just right of
    each (the sup of a step term sits on one side of a jump)."""
    t = data.sorted_view.distinct_times
    t = t[t <= M]
    right_of = np.minimum(np.nextafter(t, np.inf), M)
    # np.unique's sort and drop of adjacent duplicates; np.unique loads numpy.ma.
    points = np.sort(np.concatenate([fixed[fixed <= M], t, right_of]))
    return points[np.concatenate([[True], points[1:] != points[:-1]])]


def _kept(values: np.ndarray) -> np.ndarray:
    """The values that are not NaN (kept replications), sorted."""
    return np.sort(values[~np.isnan(values)])


def _median(kept: np.ndarray) -> float:
    """``np.nanmedian`` of the sorted values ``kept`` (NaN when empty)."""
    half = kept.size // 2
    if kept.size % 2:
        return kept[half]
    return (kept[half - 1] + kept[half]) / 2.0 if kept.size else math.nan


def _quantile(kept: np.ndarray, q: float) -> float:
    """``np.nanquantile(kept, q)`` of the sorted values ``kept`` (NaN when
    empty): numpy's default (linear) method, step for step.  At ``v = (n -
    1) q`` it interpolates between entries ``floor(v)`` and ``floor(v) + 1``
    with weight ``t = v - floor(v)``, from the upper one when ``t >= 1/2``;
    from ``v = n - 1`` on both are the last entry and ``t = v + 1``."""
    if kept.size == 0:
        return math.nan
    v = (kept.size - 1) * q
    if v >= kept.size - 1:
        a = b = kept[-1]
        t = v + 1.0
    else:
        j = math.floor(v)
        a, b, t = kept[j], kept[j + 1], v - j
    step = b - a
    return b - step * (1.0 - t) if t >= 0.5 else a + step * t


def _summaries(sample_sizes, raw: dict[str, np.ndarray]) -> dict[str, QuantitySummary]:
    """Per-n summaries of each table's kept (non-NaN) replications.

    The median and quantiles equal ``np.nanmedian`` and ``np.nanquantile``
    along the rows, bit for bit (on the sups, which are never -0.0: a sort
    and numpy's partition may order -0.0 and 0.0 differently), but are read
    off each row's sorted kept values: numpy's median, quantile and row-wise
    nan-median load ``numpy.ma``, which would land mid-run among a
    replication's arrays.
    """
    out = {}
    for name, table in raw.items():
        mean = np.nanmean(table, axis=1)
        slope, se = fit_loglog_slope(sample_sizes, mean)
        kept = [_kept(row) for row in table]
        out[name] = QuantitySummary(
            mean=mean,
            median=np.array([_median(row) for row in kept]),
            q10=np.array([_quantile(row, 0.1) for row in kept]),
            q90=np.array([_quantile(row, 0.9) for row in kept]),
            slope=slope,
            slope_stderr=se,
        )
    return out


def _run(claim, truth, sample_sizes, replications, seed, names, measure, *,
         grid_points, phi_floor, a_n=None) -> RateExperimentResult:
    """The replication loop every claim shares.

    Replication r at size n draws its dataset from ``replication_seed(seed,
    n, r)`` and calls ``measure(truth, data, fixed, M)``, which returns one
    sup per quantity in ``names``, or None for an excluded replication (its
    raw entries stay NaN); a draw with no events is excluded too.  Exceeding
    the exclusion cap at any n invalidates the experiment.  The truth's path
    integrals are built once over ``[0, M]`` before the first replication,
    so no replication's values depend on which ran before it.  With ``a_n``
    the result carries the per-n medians of ``a_n * n * sup`` of the first
    quantity, over the replications kept.
    """
    sizes = _validate_design(sample_sizes, replications)
    a_fn = None if a_n is None else A_N_CHOICES[_a_n_choice(a_n)]
    M = truth.default_M(phi_floor)
    truth.hazard_over_phi(M)
    fixed = np.linspace(0.0, M, grid_points)
    raw = {name: np.full((len(sizes), replications), np.nan) for name in names}
    excluded = []
    for i, n in enumerate(sizes):
        bad = 0
        for r in range(replications):
            try:
                data = generate_dataset(truth, n, replication_seed(seed, n, r))
            except DataError:  # no events
                sups = None
            else:
                sups = measure(truth, data, fixed, M)
            if sups is None:
                bad += 1
                continue
            for table, value in zip(raw.values(), sups):
                table[i, r] = value
        excluded.append(bad)
        if bad > EXCLUSION_CAP * replications:
            raise ExperimentValidityError(
                f"{bad}/{replications} replications excluded at n={n}; "
                f"cap is {EXCLUSION_CAP:.0%}"
            )
    normalized = None
    if a_fn is not None:
        primary = raw[names[0]]
        normalized = np.array(
            [_median(_kept(a_fn(n) * n * primary[i])) for i, n in enumerate(sizes)]
        )
    return RateExperimentResult(
        claim=claim,
        sample_sizes=sizes,
        replications=replications,
        seed=int(seed),
        a_n_label="const" if a_n is None else a_n,
        grid_points=grid_points,
        M=M,
        quantities=_summaries(sizes, raw),
        raw=raw,
        excluded=tuple(excluded),
        normalized_median=normalized,
    )


def measure_risk_deviation(truth: TruthModel, data: SurvivalDataset, fixed, M):
    """Sups of |phi_n - phi| and, with covariates, of the Euclidean norm of
    ``d1_n - d1``, both at the true coefficients."""
    grid = _eval_grid(fixed, data, M)
    agg = build_aggregates(data, truth.beta0)
    sups = [np.max(np.abs(phi_n(agg, grid) - truth.phi(grid)))]
    if truth.p:
        dev_d1 = d1_n(agg, grid) - truth.d1(grid)
        sups.append(np.max(np.linalg.norm(dev_d1, axis=1)))
    return sups


def risk_deviation_experiment(
    truth: TruthModel,
    sample_sizes,
    replications: int,
    seed: int,
    *,
    grid_points: int = GRID_POINTS,
    phi_floor: float = PHI_FLOOR,
) -> RateExperimentResult:
    """Root-n deviations of the empirical risk mass and its gradient over
    [0, M] (:func:`measure_risk_deviation`; no fitting)."""
    names = ("phi", "d1") if truth.p else ("phi",)
    return _run("risk-deviation", truth, sample_sizes, replications, seed, names,
                measure_risk_deviation, grid_points=grid_points, phi_floor=phi_floor)


def measure_coupling_remainder(truth: TruthModel, data: SurvivalDataset, fixed, M):
    """Sup of |r_n3| at the true coefficients."""
    win = _window(truth, data, ("H_uc",), *_window_grid(fixed, data, M))
    *_, r_n3 = _t2_parts(data, truth, win)
    return [np.max(np.abs(r_n3))]


def coupling_remainder_experiment(
    truth: TruthModel,
    sample_sizes,
    replications: int,
    seed: int,
    *,
    a_n: str = A_N,
    grid_points: int = GRID_POINTS,
    phi_floor: float = PHI_FLOOR,
) -> RateExperimentResult:
    """Rate of the empirical-process coupling remainder r_n3.

    r_n3 integrates the deviation of the reciprocal empirical risk mass
    against the centered empirical measure; its sup should shrink almost at
    rate 1/n.  Evaluated at the true coefficients, so no fitting is involved.
    Reports the slope and the per-n medians of a_n * n * sup|r_n3|.
    """
    return _run("coupling-remainder", truth, sample_sizes, replications, seed, ("r_n3",),
                measure_coupling_remainder, grid_points=grid_points, phi_floor=phi_floor,
                a_n=a_n)


def measure_linearization_remainder(truth: TruthModel, data: SurvivalDataset, fixed, M):
    """Sups of |r_n| and |mean xi|, or None when the fit does not converge.

    Fits the coefficients from ``beta0``, then forms

        r_n(x) = haz_n(beta_hat, x) - haz_0(x) - mean_i xi_i(x)
                 + (beta_hat - beta0)' A0(x)

    with truth-mode influence values and the population sensitivity curve.
    The mean influence comes first, so the fit's first trial point reads
    the ``beta0`` risk table it built (the partial likelihood has one
    maximizer, so the start does not change the fit).  Without covariates
    there is nothing to fit: ``beta_hat`` is ``beta0`` and the remainder
    reduces to r_n3 + r_n4.  The truth's ``q`` and ``A0`` are read in one
    query at the window grid.
    """
    win = _window(truth, data, ("q", "A0"), *_window_grid(fixed, data, M))
    mean_xi = _xi_truth_mean(data, truth, win)
    beta_hat = truth.beta0
    if truth.p:
        fit = fit_mple(data, init=truth.beta0)
        if not fit.converged:
            return None
        beta_hat = fit.beta_hat
    _, _, r_n = _linearization_remainder(data, truth, win, beta_hat, mean_xi)
    return [np.max(np.abs(r_n)), np.max(np.abs(mean_xi))]


def linearization_remainder_experiment(
    truth: TruthModel,
    sample_sizes,
    replications: int,
    seed: int,
    *,
    a_n: str = A_N,
    grid_points: int = GRID_POINTS,
    phi_floor: float = PHI_FLOOR,
) -> RateExperimentResult:
    """Rate of the linearization remainder r_n with fitted coefficients, and
    of sup|mean xi|, the linear term the remainder must stay below
    (:func:`measure_linearization_remainder`).  Non-converged fits are
    excluded and counted; exceeding the exclusion cap invalidates the
    experiment."""
    return _run("linearization-remainder", truth, sample_sizes, replications, seed,
                ("r_n", "mean_xi"), measure_linearization_remainder,
                grid_points=grid_points, phi_floor=phi_floor, a_n=a_n)


# ---------------------------------------------------------------------------
# Flat key-value experiment configs


# Most ``grid_points`` a flag or config value may ask for (8 MiB per array).
MAX_GRID_POINTS = 2**20


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be non-negative, got {value}")
    return value


def _grid_points(text: str) -> int:
    value = _non_negative(text)
    if value > MAX_GRID_POINTS:
        raise ValueError(f"must be at most {MAX_GRID_POINTS}, got {value}")
    return value


# Each config key with the parser of its value, which also parses each CLI flag
# whose ``dest`` is the key (rate-lab's flags, ``--seed`` and ``--grid-points``).
CONFIG_KEYS = {
    "truth": str, "claim": str, "replications": int, "seed": _non_negative,
    "grid_points": _grid_points, "M_policy": float, "a_n": _a_n_choice,
    "sample_sizes": lambda text: tuple(int(v) for v in text.split(",")),
}


def parse_setting(key: str, text: str):
    """``text`` read by the parser of config key ``key``; a value that does
    not parse raises ``ValueError`` naming the key."""
    try:
        return CONFIG_KEYS[key](text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def parse_config(path) -> dict:
    """Parse a flat ``key = value`` experiment config file.

    Keys are those of ``CONFIG_KEYS`` (``M_policy`` is the risk-mass floor
    defining M).  Lines starting with ``#`` and blank lines are ignored.
    """
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = parse_setting(key, value.strip())
    return out
