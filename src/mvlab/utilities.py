"""Utility families with exact derivatives and quadratic-approximation tools.

Four parametric families are provided, all increasing and concave with a
non-negative third derivative on their domains:

* power:      U(z) = (1+z)^a          with 0 < a < 1
* log:        U(z) = log(a+z)         with a > 0
* neg_exp:    U(z) = -exp(-a*(1+z))   with a > 0
* neg_power:  U(z) = -(1+z)^(-a)      with a > 0

Expected utility accepts either a discrete lottery (probability weighted)
or a plain sample vector (equal weighted).  Sample draws that fall below
an open domain edge are clamped to edge + 1e-6 and counted; evaluation
fails if more than ``CLAMP_BUDGET`` of the draws needed clamping.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .errors import DomainError, ParameterError

CLAMP_BUDGET = 1e-4
_CLAMP_OFFSET = 1e-6


class UtilityFamily(str, enum.Enum):
    POWER = "power"
    LOG = "log"
    NEG_EXP = "neg_exp"
    NEG_POWER = "neg_power"


class Expansion(str, enum.Enum):
    """Where the second-order Taylor expansion is centered."""

    AROUND_MEAN = "around_mean"
    AROUND_ZERO = "around_zero"


@dataclass(frozen=True)
class UtilitySpec:
    family: UtilityFamily
    a: float

    def __post_init__(self):
        fam = UtilityFamily(self.family)
        object.__setattr__(self, "family", fam)
        if fam is UtilityFamily.POWER:
            if not 0.0 < self.a < 1.0:
                raise ParameterError(f"power exponent must lie in (0, 1), got {self.a}")
        elif self.a <= 0.0:
            raise ParameterError(f"{fam.value} parameter must be > 0, got {self.a}")
        self._check_shape()

    @property
    def domain_min(self) -> float:
        """Open lower domain edge; -inf when the domain is all reals."""
        if self.family is UtilityFamily.LOG:
            return -self.a
        if self.family is UtilityFamily.NEG_EXP:
            return -math.inf
        return -1.0

    @property
    def identifier(self) -> str:
        return f"{self.family.value}:{self.a:g}"

    def _check_shape(self) -> None:
        # Increasing, concave, non-negative third derivative, probed on a
        # 100-point grid just above the domain edge.
        lo = self.domain_min
        start = -2.0 if lo == -math.inf else lo + 1e-3
        grid = np.linspace(start, start + 3.0, 100)
        u1, u2, u3 = utility_derivatives(self, grid)
        if not (np.all(u1 > 0.0) and np.all(u2 < 0.0) and np.all(u3 >= 0.0)):
            raise ParameterError(
                f"{self.family.value}(a={self.a}) violates U'>0, U''<0, U'''>=0"
            )

    def __str__(self) -> str:
        return self.identifier


@dataclass(frozen=True)
class QuadraticApprox:
    """Q(z) = c0 + c1*(z - center) + c2*(z - center)^2."""

    center: float
    c0: float
    c1: float
    c2: float

    def __post_init__(self):
        if not (self.c1 > 0.0 and self.c2 < 0.0):
            raise ParameterError(
                f"quadratic approximation must be increasing and concave at its "
                f"center; got c1={self.c1}, c2={self.c2}"
            )

    def __call__(self, z):
        dz = np.asarray(z, dtype=float) - self.center
        out = self.c0 + self.c1 * dz + self.c2 * dz * dz
        return float(out) if np.isscalar(z) else out


def _check_domain(spec: UtilitySpec, z: np.ndarray) -> None:
    lo = spec.domain_min
    if lo == -math.inf:
        return
    bad = z <= lo
    if np.any(bad):
        offender = float(np.asarray(z)[bad].min()) if np.ndim(z) else float(z)
        raise DomainError(
            f"{spec.identifier} is undefined at z={offender} (domain z > {lo})"
        )


def _evaluate(spec: UtilitySpec, arr: np.ndarray) -> np.ndarray:
    """U on an array already inside the domain.  Powers of 1+z are taken
    as exp(a*log1p(z)): NumPy's float ``pow`` is several times slower."""
    fam = spec.family
    a = spec.a
    if fam is UtilityFamily.POWER:
        return np.exp(a * np.log1p(arr))
    if fam is UtilityFamily.LOG:
        return np.log(a + arr)
    if fam is UtilityFamily.NEG_EXP:
        return -np.exp(-a * (1.0 + arr))
    return -np.exp(-a * np.log1p(arr))


def utility_value(spec: UtilitySpec, z):
    """U(z); raises DomainError outside the family's domain."""
    arr = np.asarray(z, dtype=float)
    _check_domain(spec, arr)
    out = _evaluate(spec, arr)
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out


def utility_derivatives(spec: UtilitySpec, z):
    """Closed-form (U', U'', U''') at z."""
    arr = np.asarray(z, dtype=float)
    _check_domain(spec, arr)
    fam = spec.family
    a = spec.a
    if fam is UtilityFamily.POWER:
        w = 1.0 + arr
        u1 = a * w ** (a - 1.0)
        u2 = a * (a - 1.0) * w ** (a - 2.0)
        u3 = a * (a - 1.0) * (a - 2.0) * w ** (a - 3.0)
    elif fam is UtilityFamily.LOG:
        w = a + arr
        u1 = 1.0 / w
        u2 = -1.0 / w**2
        u3 = 2.0 / w**3
    elif fam is UtilityFamily.NEG_EXP:
        e = np.exp(-a * (1.0 + arr))
        u1 = a * e
        u2 = -a * a * e
        u3 = a**3 * e
    else:
        w = 1.0 + arr
        u1 = a * w ** (-a - 1.0)
        u2 = -a * (a + 1.0) * w ** (-a - 2.0)
        u3 = a * (a + 1.0) * (a + 2.0) * w ** (-a - 3.0)
    if np.isscalar(z) or arr.ndim == 0:
        return float(u1), float(u2), float(u3)
    return u1, u2, u3


def ara(spec: UtilitySpec, z):
    """Absolute risk aversion -U''/U' in closed form."""
    arr = np.asarray(z, dtype=float)
    _check_domain(spec, arr)
    fam = spec.family
    a = spec.a
    if fam is UtilityFamily.POWER:
        out = (1.0 - a) / (1.0 + arr)
    elif fam is UtilityFamily.LOG:
        out = 1.0 / (a + arr)
    elif fam is UtilityFamily.NEG_EXP:
        out = np.full_like(arr, a) if arr.ndim else a
    else:
        out = (1.0 + a) / (1.0 + arr)
    if np.isscalar(z) or np.ndim(arr) == 0:
        return float(out)
    return out


def taylor2(spec: UtilitySpec, center: float) -> QuadraticApprox:
    """Second-order expansion of U around ``center``."""
    c0 = utility_value(spec, center)
    u1, u2, _ = utility_derivatives(spec, center)
    return QuadraticApprox(center=center, c0=c0, c1=u1, c2=u2 / 2.0)


def approx_table(spec: UtilitySpec, grid) -> list[tuple[float, float, float]]:
    """Rows (z, U(z), Q(z)) with Q expanded around 0."""
    q = taylor2(spec, 0.0)
    rows = []
    for z in grid:
        rows.append((float(z), utility_value(spec, float(z)), q(float(z))))
    return rows


def expected_quadratic(spec: UtilitySpec, mean: float, var: float, mode: Expansion) -> float:
    """E[Q] for a distribution with the given mean and variance.

    AROUND_MEAN expands at the mean: U(m) + U''(m)/2 * var.
    AROUND_ZERO expands at 0:        U(0) + U'(0)*m + U''(0)/2 * (m^2 + var).
    """
    if var < 0.0:
        raise ParameterError(f"variance must be >= 0, got {var}")
    mode = Expansion(mode)
    if mode is Expansion.AROUND_MEAN:
        q = taylor2(spec, mean)
        return q.c0 + q.c2 * var
    q = taylor2(spec, 0.0)
    return q.c0 + q.c1 * mean + q.c2 * (mean * mean + var)


def clamped_utility(spec: UtilitySpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """U elementwise on an array of draws, under the clamping policy.

    Draws at or below the domain edge are moved to edge + 1e-6 before U
    is taken.  Returns (U values, boolean mask of the moved draws), the
    mask being None when no draw was moved.  Whether the sample may be
    evaluated at all is :func:`over_clamp_budget` of the moved count.
    """
    lo = spec.domain_min
    if lo == -math.inf:
        return _evaluate(spec, x), None
    bad = x <= lo
    if not bad.any():
        return _evaluate(spec, x), None
    return _evaluate(spec, np.where(bad, lo + _CLAMP_OFFSET, x)), bad


def over_clamp_budget(n_clamped, n_draws, max_clamped_fraction: float = CLAMP_BUDGET):
    """True where more than ``max_clamped_fraction`` of ``n_draws`` draws
    needed clamping; elementwise on arrays of counts."""
    return n_clamped > max_clamped_fraction * n_draws


def sample_expected_utility(
    sample: np.ndarray,
    spec: UtilitySpec,
    max_clamped_fraction: float = CLAMP_BUDGET,
) -> tuple[float, int]:
    """Equal-weight expected utility of a sample, with domain clamping.

    Returns (expected utility, number of clamped draws).  Draws at or
    below the domain edge are moved to edge + 1e-6; more than
    ``max_clamped_fraction`` of them fails the evaluation.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise ParameterError("expected utility requires a non-empty sample")
    values, clamped = clamped_utility(spec, x)
    n_clamped = 0 if clamped is None else int(np.count_nonzero(clamped))
    if over_clamp_budget(n_clamped, x.size, max_clamped_fraction):
        raise DomainError(
            f"{n_clamped}/{x.size} draws below the domain edge of "
            f"{spec.identifier} exceeds the clamping budget "
            f"({max_clamped_fraction:g})"
        )
    return float(np.mean(values)), n_clamped


def expected_utility(outcomes, spec: UtilitySpec) -> float:
    """E[U] over a discrete lottery or a sample vector.

    Lotteries are probability weighted and must lie strictly inside the
    domain; samples are equal weighted under the clamping policy of
    :func:`sample_expected_utility`.
    """
    if hasattr(outcomes, "probs") and hasattr(outcomes, "values"):
        values = np.asarray(outcomes.values, dtype=float)
        probs = np.asarray(outcomes.probs, dtype=float)
        return float(np.sum(probs * utility_value(spec, values)))
    eu, _ = sample_expected_utility(np.asarray(outcomes), spec)
    return eu


def table6_panel() -> list[UtilitySpec]:
    """The 24-utility benchmark panel used throughout the experiments."""
    panel = [UtilitySpec(UtilityFamily.POWER, a) for a in (0.01, 0.1, 0.5, 0.9)]
    panel += [UtilitySpec(UtilityFamily.LOG, a) for a in (0.9, 1.0)]
    panel += [UtilitySpec(UtilityFamily.NEG_EXP, a) for a in (0.7, 1, 3, 5, 8, 10, 15, 20)]
    panel += [
        UtilitySpec(UtilityFamily.NEG_POWER, a)
        for a in (0.01, 0.3, 0.5, 1, 3, 5, 8, 10, 15, 20)
    ]
    return panel


def round_half_away_from_zero(x: float, ndigits: int = 2) -> float:
    """Decimal rounding with ties away from zero (printed-table convention).

    The value is first quantized to 10 decimals so that binary noise in
    an exact-decimal tie (e.g. 0.655 evaluating to 0.6549999999999999)
    does not flip the tie direction.
    """
    cleaned = Decimal(repr(float(x))).quantize(
        Decimal(1).scaleb(-10), rounding=ROUND_HALF_UP
    )
    exp = Decimal(1).scaleb(-ndigits)
    return float(cleaned.quantize(exp, rounding=ROUND_HALF_UP))
