"""Analytic data-generating designs with closed-form population functionals.

A truth model fixes the regression coefficients, a baseline hazard with a
closed-form cumulative (and inverse), a covariate law, and uniform censoring
on (0, tau_c).  Everything the linearization needs about the population --
the weighted risk mass ``Phi(beta0, x)``, its gradient ``D1``, the uncensored
sub-distribution, and the sensitivity integral ``A0`` -- is then available in
closed form or through cached high-accuracy quadrature, so Monte Carlo
experiments compare estimators against the actual population quantities
rather than a second simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .data import SurvivalDataset
from .quadrature import PanelAntiderivative

_TRUNCNORM_QUAD_POINTS = 64


# ---------------------------------------------------------------------------
# Covariate laws


class CovariateLaw:
    """Sampling plus integration atoms for a covariate vector.

    ``atoms()`` returns weights and points such that ``E[g(Z)] ~= sum_j w_j
    g(z_j)`` exactly for discrete laws and to Gauss accuracy for
    truncated-normal coordinates; the truth functionals are expectations of
    smooth functions, so this is the only integration primitive needed.
    """

    dim: int

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


@dataclass(frozen=True)
class Discrete(CovariateLaw):
    values: tuple[float, ...]
    probs: tuple[float, ...]
    dim: ClassVar[int] = 1

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("values and probs must be nonempty and equal length")
        if abs(sum(self.probs) - 1.0) > 1e-12 or min(self.probs) < 0:
            raise ValueError("probs must be nonnegative and sum to 1")

    def sample(self, rng, n):
        vals = np.asarray(self.values)
        idx = rng.choice(len(vals), size=n, p=np.asarray(self.probs))
        return vals[idx].reshape(n, 1)

    def atoms(self):
        return np.asarray(self.probs), np.asarray(self.values).reshape(-1, 1)


def bernoulli(q: float) -> Discrete:
    """Z in {0, 1} with P(Z = 1) = q."""
    if not 0 < q < 1:
        raise ValueError("q must be in (0, 1)")
    return Discrete(values=(0.0, 1.0), probs=(1.0 - q, q))


@dataclass(frozen=True)
class TruncatedNormal(CovariateLaw):
    mu: float
    sigma: float
    lo: float
    hi: float
    dim: ClassVar[int] = 1

    def __post_init__(self):
        if not (self.lo < self.hi and self.sigma > 0):
            raise ValueError("need lo < hi and sigma > 0")

    def _cdf_bounds(self):
        from scipy.special import ndtr  # on first use, not at package import

        a = ndtr((self.lo - self.mu) / self.sigma)
        b = ndtr((self.hi - self.mu) / self.sigma)
        return a, b

    def sample(self, rng, n):
        from scipy.special import ndtri

        a, b = self._cdf_bounds()
        u = rng.random(n)
        z = self.mu + self.sigma * ndtri(a + u * (b - a))
        return np.clip(z, self.lo, self.hi).reshape(n, 1)

    def atoms(self):
        nodes, weights = np.polynomial.legendre.leggauss(_TRUNCNORM_QUAD_POINTS)
        half = 0.5 * (self.hi - self.lo)
        pts = self.lo + half * (nodes + 1.0)
        a, b = self._cdf_bounds()
        dens = np.exp(-0.5 * ((pts - self.mu) / self.sigma) ** 2) / (
            self.sigma * math.sqrt(2 * math.pi) * (b - a)
        )
        w = half * weights * dens
        return w / w.sum(), pts.reshape(-1, 1)


@dataclass(frozen=True)
class Product(CovariateLaw):
    """Independent coordinates, one law per coordinate."""

    laws: tuple[CovariateLaw, ...]

    @property
    def dim(self) -> int:  # type: ignore[override]
        return sum(law.dim for law in self.laws)

    def sample(self, rng, n):
        if not self.laws:
            return np.zeros((n, 0))
        return np.concatenate([law.sample(rng, n) for law in self.laws], axis=1)

    def atoms(self):
        weights = np.ones(1)
        points = np.zeros((1, 0))
        for law in self.laws:
            w, z = law.atoms()
            weights = np.repeat(weights, w.size) * np.tile(w, points.shape[0])
            points = np.column_stack(
                [np.repeat(points, w.size, axis=0), np.tile(z, (points.shape[0], 1))]
            )
        return weights, points


NO_COVARIATES = Product(laws=())


# ---------------------------------------------------------------------------
# Baseline hazards


@dataclass(frozen=True)
class BaselineHazard:
    """Hazard rate with closed-form cumulative and inverse cumulative.

    The inverse makes survival-time draws a single inverse-transform step;
    an unbounded cumulative keeps the survival support beyond any censoring
    horizon, which the model assumptions require.
    """

    rate: Callable[[np.ndarray], np.ndarray]
    cumulative: Callable[[np.ndarray], np.ndarray]
    inverse_cumulative: Callable[[np.ndarray], np.ndarray]


def constant_hazard(rate: float = 1.0) -> BaselineHazard:
    if rate <= 0:
        raise ValueError("rate must be positive")
    return BaselineHazard(
        rate=lambda x: np.full_like(np.asarray(x, dtype=float), rate),
        cumulative=lambda x: rate * np.asarray(x, dtype=float),
        inverse_cumulative=lambda y: np.asarray(y, dtype=float) / rate,
    )


def weibull_hazard(shape: float, scale: float = 1.0) -> BaselineHazard:
    """rate(t) = shape * scale * (scale * t)^(shape-1)."""
    if shape <= 0 or scale <= 0:
        raise ValueError("shape and scale must be positive")
    return BaselineHazard(
        rate=lambda x: shape * scale * (scale * np.asarray(x, dtype=float)) ** (shape - 1.0),
        cumulative=lambda x: (scale * np.asarray(x, dtype=float)) ** shape,
        inverse_cumulative=lambda y: np.asarray(y, dtype=float) ** (1.0 / shape) / scale,
    )


# ---------------------------------------------------------------------------
# Truth model

# The population risk mass that defines the window end M (``default_M``).
PHI_FLOOR = 0.05


class TruthModel:
    """Proportional hazards design: hazard(x | z) = rate0(x) * exp(beta0'z).

    Censoring is uniform on (0, tau_c), so the follow-up support ends at
    ``tau_c`` while survival support is unbounded (the usual support
    condition holds by construction).  Population functionals are evaluated
    from the covariate atoms.  The path integrals against the baseline
    hazard, ``[q, H_uc, A0_1 .. A0_p]``, are the columns of one cached panel
    antiderivative (see :meth:`path_integrals`): per-panel Chebyshev series
    of the integrands, integrated exactly and anchored at Gauss prefix sums,
    accurate to ~1e-11 absolute (``atol``; 1e-10 for ``A0``), with each
    panel's interpolant checked to ``atol/10`` in every column.
    """

    def __init__(self, beta0, baseline: BaselineHazard, covariate_law: CovariateLaw,
                 censor_upper: float):
        self.beta0 = np.atleast_1d(np.asarray(beta0, dtype=float))
        self.baseline = baseline
        self.covariate_law = covariate_law
        self.censor_upper = float(censor_upper)
        if self.censor_upper <= 0:
            raise ValueError("censor_upper must be positive")
        if self.beta0.size != covariate_law.dim:
            raise ValueError("beta0 length must match covariate dimension")
        w, z = covariate_law.atoms()
        self._atom_points = z
        # exp(eta_j) of each atom, computed once: every phi, d1 and d2 reads it.
        self._atom_factor = np.exp(z @ self.beta0 if self.p else np.zeros(w.size))
        self._atom_coef = w * self._atom_factor
        self._integrals: PanelAntiderivative | None = None

    @property
    def p(self) -> int:
        return int(self.beta0.size)

    # -- population functionals ------------------------------------------

    def censor_survival(self, x):
        return np.clip(1.0 - np.asarray(x, dtype=float) / self.censor_upper, 0.0, 1.0)

    def cum_hazard0(self, x):
        return self.baseline.cumulative(x)

    def _atom_survival(self, x):
        """exp(-Lambda0(x) e^{eta_j}) for each atom; shape (len(x), k)."""
        lam = np.asarray(self.cum_hazard0(np.atleast_1d(x)), dtype=float)
        return np.exp(-lam[:, None] * self._atom_factor[None, :])

    def phi(self, x):
        """Population weighted risk mass Phi(beta0, x) = E[{T>=x} e^{beta0'Z}]."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.censor_survival(x_arr) * (self._atom_survival(x_arr) @ self._atom_coef)
        return out if np.asarray(x).ndim else float(out[0])

    def d1(self, x):
        """Gradient of phi in beta; shape (len(x), p)."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        mix = self._atom_survival(x_arr) @ (self._atom_coef[:, None] * self._atom_points)
        out = self.censor_survival(x_arr)[:, None] * mix
        return out if np.asarray(x).ndim else out.reshape(self.p)

    def d2(self, x):
        """Hessian of phi in beta; shape (len(x), p, p)."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        zz = self._atom_points[:, :, None] * self._atom_points[:, None, :]
        mix = np.einsum("xk,k,kij->xij", self._atom_survival(x_arr), self._atom_coef, zz)
        out = self.censor_survival(x_arr)[:, None, None] * mix
        return out if np.asarray(x).ndim else out.reshape(self.p, self.p)

    # -- path integrals -----------------------------------------------------

    def _path_integrands(self, u):
        """Integrands ``[rate0/phi, phi rate0, d1 rate0/phi]`` at ``u``."""
        phi, d1 = self.phi(u), self.d1(u)
        rate = self.baseline.rate(u)
        return np.column_stack([rate / phi, phi * rate, d1 * rate[:, None] / phi[:, None]])

    def path_integrals(self, x, columns):
        """Columns ``[q, H_uc, A0_1 .. A0_p]`` of the path integrals at ``x``.

        ``columns`` indexes them (an index gives one value per point, a
        scalar ``x`` one row).  All are read from one antiderivative over
        ``[0, hi]``, rebuilt over ``[0, max(x)]`` when ``max(x)`` passes
        ``hi``; a build needs ``max(x) < censor_upper`` and positive risk
        mass there and raises ``ValueError`` otherwise.  Every column is
        exactly 0.0 at 0.
        """
        x_arr = np.asarray(x, dtype=float)
        points = np.atleast_1d(x_arr)
        hi = float(points.max()) if points.size else 0.0
        if hi == 0.0:
            out = np.zeros((points.size, 2 + self.p))[:, columns]
        else:
            if self._integrals is None or self._integrals.hi < hi:
                if hi >= self.censor_upper or self.phi(hi) <= 1e-12:
                    raise ValueError(f"requested point {hi} is at or beyond the follow-up "
                                     "support (risk mass vanishes)")
                atol = np.r_[1e-11, 1e-11, np.full(self.p, 1e-10)]
                self._integrals = PanelAntiderivative(self._path_integrands, hi, atol=atol)
            out = self._integrals(points, columns)
        return out if x_arr.ndim else out[0]

    def hazard_over_phi(self, x):
        """q(x) = int_0^x rate0(u) / phi(beta0, u) du, the integral in xi."""
        return self.path_integrals(x, 0)

    def h_uc(self, x):
        """Uncensored sub-distribution H^{uc}(x) = int_0^x phi rate0 du."""
        return self.path_integrals(x, 1)

    def a0(self, x):
        """Sensitivity integral A0(x) = int_0^x d1(u) rate0(u) / phi(u) du."""
        return self.path_integrals(x, slice(2, None))

    # -- policies -------------------------------------------------------------

    def default_M(self, phi_floor: float = PHI_FLOOR) -> float:
        """The window end M: ``phi(M) >= phi_floor > phi(nextafter(M, inf))``.

        A bisection on floats keeps ``phi(lo) >= phi_floor > phi(hi)`` until
        ``lo`` and ``hi`` are adjacent and returns ``lo``, the largest such
        float when ``phi`` is nonincreasing.  A floor that is not finite and
        positive raises ``ValueError``, and so does one that ``phi`` still
        meets at ``censor_upper * (1 - 1e-9)``."""
        if not 0.0 < phi_floor < math.inf:
            raise ValueError(f"risk-mass floor must be finite and positive, got {phi_floor!r}")
        if self.phi(0.0) < phi_floor:
            raise ValueError("risk mass already below the floor at x = 0")
        lo, hi = 0.0, self.censor_upper * (1.0 - 1e-9)
        if self.phi(hi) >= phi_floor:
            raise ValueError(f"risk mass still at the floor {phi_floor!r} at x = {hi!r}")
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if self.phi(mid) >= phi_floor:
                lo = mid
            else:
                hi = mid
        return lo


def reference_truth() -> TruthModel:
    """The package's reference design.

    Z ~ Bernoulli(1/2), beta0 = ln 2, unit baseline hazard (so the baseline
    cumulative hazard is the identity), censoring uniform on (0, 3).  Closed
    form for x in [0, 3]:

        phi(beta0, x) = 0.5 (1 - x/3) (exp(-x) + 2 exp(-2x))
        d1(beta0, x)  = 0.5 (1 - x/3) * 2 exp(-2x)
    """
    return TruthModel(
        beta0=np.array([math.log(2.0)]),
        baseline=constant_hazard(1.0),
        covariate_law=bernoulli(0.5),
        censor_upper=3.0,
    )


def no_covariate_truth() -> TruthModel:
    """Covariate-free design used for the unconditional special case.

    Unit baseline hazard and censoring uniform on (0, 3), as in
    :func:`reference_truth`."""
    return TruthModel(
        beta0=np.zeros(0),
        baseline=constant_hazard(1.0),
        covariate_law=NO_COVARIATES,
        censor_upper=3.0,
    )


def generate_dataset(truth: TruthModel, n: int, seed) -> SurvivalDataset:
    """Draw ``n`` observations from ``truth``; deterministic given ``seed``.

    Draw order: covariates first, then one uniform per subject inverted
    through the cumulative baseline hazard (X = Lambda0^{-1}(-ln U / e^{eta})),
    then the censoring times.  ``seed`` may be an integer, a SeedSequence, or
    a Generator, which the draws advance.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z = truth.covariate_law.sample(rng, n)
    eta = z @ truth.beta0 if truth.p else np.zeros(n)
    u = rng.random(n)
    with np.errstate(divide="ignore"):
        x = truth.baseline.inverse_cumulative(-np.log(u) * np.exp(-eta))
    c = truth.censor_upper * (1.0 - rng.random(n))
    times = np.minimum(x, c)
    events = x <= c
    return SurvivalDataset(times, events, z)
