"""Distribution families: sampling, moments, and moment-matching solvers.

Five return-generating families are supported: Normal, Laplace,
skew-normal, generalized extreme value (GEV), and alpha-stable.  For the
first four, ``solve_params_for_moments`` inverts the population moment
equations so a target (mean, std, skewness) maps to exact parameters;
the stable family has undefined population variance on stability < 2, so
it is handled by sample-moment rejection in the simulation module.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InfeasibleTargetError, ParameterError, UnsupportedFamilyError
from .rng import spawn_rng

# Population skewness of the skew-normal as shape -> +inf:
# (4-pi)/2 * (2/pi)^{3/2} / (1 - 2/pi)^{3/2}
MAX_SKEWNORMAL_SKEW = 0.99527

# Skewness of the Gumbel distribution, 12*sqrt(6)*zeta(3)/pi^3.
GUMBEL_SKEW = 1.1395470994046486

_EULER_GAMMA = 0.5772156649015329

# GEV shape solve happens on (-1/3, 1/3): above 1/3 the skewness is
# undefined, and the skewness map stays monotone on this bracket.
_GEV_SHAPE_LO = -1.0 / 3.0 + 1e-9
_GEV_SHAPE_HI = 1.0 / 3.0 - 1e-9


class Family(str, enum.Enum):
    NORMAL = "normal"
    LAPLACE = "laplace"
    SKEW_NORMAL = "skew_normal"
    GEV = "gev"
    STABLE = "stable"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


@dataclass(frozen=True)
class NormalParams:
    mu: float
    sigma: float
    family = Family.NORMAL

    def __post_init__(self):
        _require(math.isfinite(self.mu), "normal mu must be finite")
        _require(self.sigma > 0, f"normal sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class LaplaceParams:
    mu: float
    b: float
    family = Family.LAPLACE

    def __post_init__(self):
        _require(math.isfinite(self.mu), "laplace mu must be finite")
        _require(self.b > 0, f"laplace scale b must be > 0, got {self.b}")


@dataclass(frozen=True)
class SkewNormalParams:
    xi: float
    omega: float
    shape: float
    family = Family.SKEW_NORMAL

    def __post_init__(self):
        _require(math.isfinite(self.xi), "skew-normal xi must be finite")
        _require(self.omega > 0, f"skew-normal omega must be > 0, got {self.omega}")
        _require(math.isfinite(self.shape), "skew-normal shape must be finite")


@dataclass(frozen=True)
class GEVParams:
    location: float
    scale: float
    shape: float
    family = Family.GEV

    def __post_init__(self):
        _require(math.isfinite(self.location), "gev location must be finite")
        _require(self.scale > 0, f"gev scale must be > 0, got {self.scale}")
        _require(math.isfinite(self.shape), "gev shape must be finite")


@dataclass(frozen=True)
class StableParams:
    stability: float
    skew: float
    scale: float
    location: float
    family = Family.STABLE

    def __post_init__(self):
        _require(
            1.0 < self.stability <= 2.0,
            f"stable stability must lie in (1, 2], got {self.stability}",
        )
        _require(
            -1.0 <= self.skew <= 1.0,
            f"stable skew must lie in [-1, 1], got {self.skew}",
        )
        _require(self.scale > 0, f"stable scale must be > 0, got {self.scale}")
        _require(math.isfinite(self.location), "stable location must be finite")


FamilyParams = NormalParams | LaplaceParams | SkewNormalParams | GEVParams | StableParams


@dataclass(frozen=True)
class MomentSummary:
    """Population-convention sample moments (divide-by-n throughout)."""

    mean: float
    std: float
    skewness: float
    n: int

    @classmethod
    def from_central(cls, mean, var, m3, n) -> "MomentSummary":
        """Summary of ``n`` points from their mean and second and third
        central moments; a zero-std distribution reports skewness 0 by
        convention.  When ``std**3`` leaves the float range, ``m3`` is
        divided by one factor at a time."""
        std = math.sqrt(var)
        if std == 0.0:
            return cls(mean=mean, std=0.0, skewness=0.0, n=n)
        try:
            skewness = m3 / std**3
        except (ZeroDivisionError, OverflowError):
            skewness = m3 / var / std
        return cls(mean=mean, std=std, skewness=skewness, n=n)


@dataclass(frozen=True)
class MomentTarget:
    """Target moments for the solver; skewness is None for symmetric families."""

    mean: float
    std: float
    skewness: float | None = None

    def __post_init__(self):
        for name in ("mean", "std", "skewness"):
            value = getattr(self, name)
            _require(
                value is None or math.isfinite(value),
                f"target {name} must be finite, got {value}",
            )
        _require(self.std > 0, f"target std must be > 0, got {self.std}")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample(params: FamilyParams, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` values; a pure function of ``(params, n, seed)``."""
    if n < 1:
        raise ParameterError(f"sample size must be >= 1, got {n}")
    rng = spawn_rng(seed)
    return sample_with_rng(params, n, rng)


def sample_with_rng(params: FamilyParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Like :func:`sample` but consuming an externally derived stream."""
    if isinstance(params, NormalParams):
        return rng.normal(params.mu, params.sigma, n)
    if isinstance(params, LaplaceParams):
        return rng.laplace(params.mu, params.b, n)
    if isinstance(params, SkewNormalParams):
        return _sample_skew_normal(params, n, rng)
    if isinstance(params, GEVParams):
        return _sample_gev(params, n, rng)
    if isinstance(params, StableParams):
        return _sample_stable(params, n, rng)
    raise UnsupportedFamilyError(f"unknown parameter type {type(params)!r}")


def _sample_skew_normal(p: SkewNormalParams, n: int, rng: np.random.Generator) -> np.ndarray:
    # Azzalini representation: Z = delta*|U0| + sqrt(1-delta^2)*U1, built
    # in U0's array in the order of xi + omega*Z.
    delta = p.shape / math.sqrt(1.0 + p.shape * p.shape)
    u0 = rng.standard_normal(n)
    u1 = rng.standard_normal(n)
    z = np.abs(u0, out=u0)
    z *= delta
    u1 *= math.sqrt(1.0 - delta * delta)
    z += u1
    z *= p.omega
    z += p.xi
    return z


def _sample_gev(p: GEVParams, n: int, rng: np.random.Generator) -> np.ndarray:
    # Inverse-CDF through a standard exponential: X = mu + sigma*(T^-k - 1)/k,
    # worked in T's array in the order the formula reads.
    t = rng.standard_exponential(n)
    np.log(t, out=t)
    if p.shape == 0.0:
        t *= p.scale
        return np.subtract(p.location, t, out=t)
    t *= -p.shape
    np.expm1(t, out=t)
    t *= p.scale
    t /= p.shape
    t += p.location
    return t


def _sample_stable(p: StableParams, n: int, rng: np.random.Generator) -> np.ndarray:
    # Chambers-Mallows-Stuck transform in the S1 parameterization, where
    # the location parameter equals the mean for stability > 1.
    alpha = p.stability
    beta = p.skew
    v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = rng.standard_exponential(n)
    tan_half = math.tan(math.pi * alpha / 2.0)
    theta0 = math.atan(beta * tan_half) / alpha
    s = (1.0 + beta * beta * tan_half * tan_half) ** (1.0 / (2.0 * alpha))
    # core = sin(a) / cos(v)^(1/alpha) * (cos(v - a) / w)^((1-alpha)/alpha)
    # with a = alpha*(v + theta0) taken once, worked in place in that order.
    a = v + theta0
    a *= alpha
    core = np.sin(a)
    np.subtract(v, a, out=a)
    np.cos(a, out=a)
    a /= w
    a **= (1.0 - alpha) / alpha
    np.cos(v, out=v)
    v **= 1.0 / alpha
    core /= v
    core *= a
    core *= p.scale * s
    core += p.location
    return core


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def central_moments(values: np.ndarray, weights: np.ndarray | None = None):
    """(mean, var, m3): the mean and the second and third central moments
    of ``values``, divide-by-n when ``weights`` is None and probability
    weighted otherwise.  Powers are products, so one squared deviation
    feeds var and m3 (NumPy's ``**3`` goes through ``pow`` and costs
    about 50 times as much).  The unweighted average is ``np.mean``'s own
    sum and division on float input, bit for bit, without its Python
    wrapper.
    """

    def average(a: np.ndarray) -> float:
        if weights is None:
            return float(np.add.reduce(a, axis=None)) / a.size
        return float(np.sum(weights * a))

    mean = average(values)
    centered = values - mean
    squared = centered * centered
    cubed = np.multiply(squared, centered, out=centered)
    return mean, average(squared), average(cubed)


def moments(sample_values: np.ndarray) -> MomentSummary:
    """Population moments of a sample: mean, divide-by-n std and
    standardized third central moment.  A zero-std sample reports skewness
    0 by convention.
    """
    x = np.asarray(sample_values, dtype=float)
    if x.ndim != 1:
        x = x.ravel()
    if x.size == 0:
        raise ParameterError("moments() requires a non-empty sample")
    return MomentSummary.from_central(*central_moments(x), n=x.size)


@lru_cache(maxsize=256)
def _gev_moment_factors(shape: float) -> tuple[float, float, float]:
    """(g1-based mean offset, std factor, skewness) of a unit-scale GEV.

    Returns (m, s, skew) such that mean = location + scale*m and
    std = scale*s.  Uses high-precision gammas: the skewness numerator
    cancels catastrophically in double precision for |shape| < ~0.02.
    """
    if shape == 0.0:
        return _EULER_GAMMA, math.pi / math.sqrt(6.0), GUMBEL_SKEW
    import mpmath  # here, not at the top: only GEV moments need it

    with mpmath.workdps(40):
        k = mpmath.mpf(shape)
        g1 = mpmath.gamma(1 - k)
        g2 = mpmath.gamma(1 - 2 * k)
        g3 = mpmath.gamma(1 - 3 * k)
        var_combo = g2 - g1 * g1
        m = (g1 - 1) / k
        s = mpmath.sqrt(var_combo) / abs(k)
        skew = mpmath.sign(k) * (g3 - 3 * g1 * g2 + 2 * g1**3) / var_combo**mpmath.mpf("1.5")
    return float(m), float(s), float(skew)


def gev_skewness(shape: float) -> float:
    """Population skewness of a GEV with the given shape (< 1/3)."""
    if shape >= 1.0 / 3.0:
        raise ParameterError(f"gev skewness undefined for shape >= 1/3, got {shape}")
    return _gev_moment_factors(shape)[2]


def population_moments(params: FamilyParams) -> tuple[float, float, float]:
    """(mean, std, skewness) implied by the parameters.

    Raises for the stable family (variance undefined below stability 2)
    and for GEV shapes at or above 1/3.
    """
    if isinstance(params, NormalParams):
        return params.mu, params.sigma, 0.0
    if isinstance(params, LaplaceParams):
        return params.mu, math.sqrt(2.0) * params.b, 0.0
    if isinstance(params, SkewNormalParams):
        delta = params.shape / math.sqrt(1.0 + params.shape**2)
        m = delta * math.sqrt(2.0 / math.pi)
        sz = math.sqrt(1.0 - m * m)
        skew = (4.0 - math.pi) / 2.0 * m**3 / sz**3
        return params.xi + params.omega * m, params.omega * sz, skew
    if isinstance(params, GEVParams):
        m, s, skew = _gev_moment_factors(params.shape)
        return params.location + params.scale * m, params.scale * s, skew
    if isinstance(params, StableParams):
        raise UnsupportedFamilyError(
            "population variance/skewness are undefined for the stable family"
        )
    raise UnsupportedFamilyError(f"unknown parameter type {type(params)!r}")


# ---------------------------------------------------------------------------
# Moment-matching solvers
# ---------------------------------------------------------------------------


def _solve_skew_normal(target: MomentTarget) -> SkewNormalParams:
    skew = target.skewness or 0.0
    if abs(skew) >= MAX_SKEWNORMAL_SKEW:
        raise InfeasibleTargetError(
            f"skew-normal skewness magnitude must be < {MAX_SKEWNORMAL_SKEW}, "
            f"got {skew}"
        )
    if skew == 0.0:
        return SkewNormalParams(xi=target.mean, omega=target.std, shape=0.0)
    # Closed-form inversion through d = shape/sqrt(1+shape^2):
    # skew = (4-pi)/2 * m^3/(1-m^2)^1.5 with m = d*sqrt(2/pi), so
    # m/sqrt(1-m^2) = r, r^3 = 2*skew/(4-pi).
    b = math.sqrt(2.0 / math.pi)
    r = math.copysign(abs(2.0 * skew / (4.0 - math.pi)) ** (1.0 / 3.0), skew)
    m = r / math.sqrt(1.0 + r * r)
    delta = m / b
    shape = delta / math.sqrt(1.0 - delta * delta)
    omega = target.std / math.sqrt(1.0 - m * m)
    xi = target.mean - omega * m
    return SkewNormalParams(xi=xi, omega=omega, shape=shape)


def _bisect(f, xa: float, xb: float, xtol: float, rtol: float = 4 * sys.float_info.epsilon,
            maxiter: int = 100) -> float:
    """Root of f on [xa, xb], where f(xa) and f(xb) differ in sign.

    A port of SciPy's C ``bisect`` loop, step for step, so the result is
    bit-identical to ``scipy.optimize.bisect`` without importing SciPy
    (about 0.6 s at start-up).  Like SciPy, it keeps f(xa) from the start.
    """
    fa, fb = f(xa), f(xb)
    if fa * fb > 0:
        raise InfeasibleTargetError(f"bisection bracket [{xa}, {xb}] holds no sign change")
    if fa == 0:
        return xa
    if fb == 0:
        return xb
    dm = xb - xa
    for _ in range(maxiter):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0:
            xa = xm
        if fm == 0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise InfeasibleTargetError(f"bisection did not converge in {maxiter} iterations")


@lru_cache(maxsize=256)
def _solve_gev_shape(skew: float) -> float:
    """Shape whose GEV skewness equals ``skew``, residual below 1e-10."""
    if abs(skew - GUMBEL_SKEW) <= 1e-10:
        return 0.0
    lo, hi = _GEV_SHAPE_LO, _GEV_SHAPE_HI
    s_lo, s_hi = gev_skewness(lo), gev_skewness(hi)
    if not (s_lo < skew < s_hi):
        raise InfeasibleTargetError(
            f"gev target skewness {skew} outside solvable range "
            f"({s_lo:.6f}, {s_hi:.6f}) for shape in (-1/3, 1/3)"
        )
    shape = float(_bisect(lambda k: gev_skewness(k) - skew, lo, hi, xtol=1e-15))
    residual = abs(gev_skewness(shape) - skew)
    if residual > 1e-10:
        raise InfeasibleTargetError(
            f"gev shape solve did not converge: residual {residual:.3e}"
        )
    return shape


def _solve_gev(target: MomentTarget) -> GEVParams:
    if target.skewness is None:
        raise ParameterError("gev targets require a skewness value")
    shape = _solve_gev_shape(target.skewness)
    m, s, _ = _gev_moment_factors(shape)
    scale = target.std / s
    location = target.mean - scale * m
    return GEVParams(location=location, scale=scale, shape=shape)


def solve_params_for_moments(family: Family, target: MomentTarget) -> FamilyParams:
    """Parameters whose population moments equal the target exactly."""
    family = Family(family)
    if family in (Family.NORMAL, Family.LAPLACE):
        if target.skewness is not None:
            raise ParameterError(
                f"{family.value} is symmetric; target skewness must be absent"
            )
        if family is Family.NORMAL:
            return NormalParams(mu=target.mean, sigma=target.std)
        return LaplaceParams(mu=target.mean, b=target.std / math.sqrt(2.0))
    if family is Family.SKEW_NORMAL:
        return _solve_skew_normal(target)
    if family is Family.GEV:
        return _solve_gev(target)
    raise UnsupportedFamilyError("stable population moments are undefined; use the "
                                 "simulation module's sample-moment rejection path")


# ---------------------------------------------------------------------------
# Generalized location-scale coefficients
# ---------------------------------------------------------------------------


def gls_coefficients(
    mean_x: float, var_x: float, r: float, mean_y: float
) -> tuple[float, float]:
    """Recover (beta, |gamma|) of X = r + beta*Y + gamma*Z from moments.

    beta = (E[X]-r)/E[Y] and |gamma| = sqrt(Var(X) - beta^2), requiring
    E[Y] != 0 and a non-negative radicand.  A radicand that is negative
    by at most four ulps of max(Var(X), beta^2) is rounding, not
    infeasibility (``x**2`` and ``x*x`` may round apart), and gives 0.
    """
    if mean_y == 0.0:
        raise ParameterError("gls coefficients require E[Y] != 0")
    if var_x < 0.0:
        raise ParameterError(f"variance must be >= 0, got {var_x}")
    beta = (mean_x - r) / mean_y
    beta_sq = beta * beta
    radicand = var_x - beta_sq
    if radicand < 0.0:
        if -radicand > 4.0 * math.ulp(max(var_x, beta_sq)):
            raise InfeasibleTargetError(
                f"no gls representation: var_x {var_x} < beta^2 {beta_sq}"
            )
        radicand = 0.0
    return beta, math.sqrt(radicand)
