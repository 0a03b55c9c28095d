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
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from functools import cached_property

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
class _Family:
    """One family: the parameter rule 0 < a < a_max, and the open domain
    edge in z (-inf for all reals), (U', U'', U''') and ARA as functions
    of a and, but for the edge, of an array z inside the domain.

    U is ``sign * finish(a, transform(z), out)``.  ``transform`` does not
    depend on a, so a panel takes it once per sample and domain edge;
    ``finish`` writes into ``out``, which a panel reuses across utilities."""

    a_max: float
    domain_min: Callable
    transform: Callable
    finish: Callable
    sign: float
    derivatives: Callable
    ara: Callable


def _exp_of_scaled(scale: float) -> Callable:
    """finish(a, t, out) = exp(scale*a*t).  Multiplication commutes exactly,
    so ``np.multiply(t, scale*a)`` equals the textbook ``scale*a*t`` bit for bit."""
    return lambda a, t, out: np.exp(np.multiply(t, scale * a, out=out), out=out)


def _times(k, x):
    """k * x, but 0 where k or x underflowed to 0 and the other overflowed (inf * 0 is NaN)."""
    return np.multiply(k, x, out=np.zeros_like(x), where=(k != 0.0) & (x != 0.0))


def _power_of_1pz(sign: float, a_max: float) -> _Family:
    """c*(1+z)^p with (p, c) = (sign*a, sign): power for sign +1, neg_power
    for -1.  Negation is exact, so both match their textbook forms bit for
    bit.  U is exp(p*log1p(z)): NumPy's float ``pow`` is several times slower."""

    def derivatives(a, z):
        p, w = sign * a, 1.0 + z
        k1 = sign * p
        k2 = k1 * (p - 1.0)
        k3 = k2 * (p - 2.0)
        return _times(k1, w ** (p - 1.0)), _times(k2, w ** (p - 2.0)), _times(k3, w ** (p - 3.0))

    return _Family(
        a_max, lambda a: -1.0, np.log1p, _exp_of_scaled(sign), sign,
        derivatives, lambda a, z: (1.0 - sign * a) / (1.0 + z),
    )


def _neg_exp_derivatives(a, z):
    e = np.exp(-a * (1.0 + z))
    return _times(a, e), _times(-a * a, e), _times(np.float64(a) ** 3, e)


def _identity(z):
    return z


def _one_plus(z):
    return 1.0 + z


_FAMILIES = {
    UtilityFamily.POWER: _power_of_1pz(1.0, a_max=1.0),
    UtilityFamily.LOG: _Family(
        math.inf, lambda a: -a, _identity,
        lambda a, t, out: np.log(np.add(t, a, out=out), out=out), 1.0,
        lambda a, z: (1.0 / (a + z), -1.0 / (a + z) ** 2, 2.0 / (a + z) ** 3),
        lambda a, z: 1.0 / (a + z),
    ),
    UtilityFamily.NEG_EXP: _Family(
        math.inf, lambda a: -math.inf, _one_plus, _exp_of_scaled(-1.0), -1.0,
        _neg_exp_derivatives, lambda a, z: np.full_like(z, a),
    ),
    UtilityFamily.NEG_POWER: _power_of_1pz(-1.0, a_max=math.inf),
}


@dataclass(frozen=True)
class UtilitySpec:
    family: UtilityFamily
    a: float

    def __post_init__(self):
        fam = UtilityFamily(self.family)
        object.__setattr__(self, "family", fam)
        if not math.isfinite(self.a):
            raise ParameterError(f"{fam.value} parameter must be finite, got {self.a}")
        a_max = _FAMILIES[fam].a_max
        if not 0.0 < self.a < a_max:
            raise ParameterError(
                f"{fam.value} parameter must lie in (0, {a_max:g}), got {self.a}"
            )

    @cached_property
    def domain_min(self) -> float:
        """Open lower domain edge; -inf when the domain is all reals."""
        return _FAMILIES[self.family].domain_min(self.a)

    @cached_property
    def identifier(self) -> str:
        """``family:a``, formatted once per instance; not a field, so
        equality and hashing ignore it."""
        return f"{self.family.value}:{self.a:g}"

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
        if not all(math.isfinite(c) for c in (self.c0, self.c1, self.c2)):
            raise ParameterError(
                f"quadratic approximation coefficients must be finite; "
                f"got c0={self.c0}, c1={self.c1}, c2={self.c2}"
            )
        if not (self.c1 > 0.0 and self.c2 < 0.0):
            raise ParameterError(
                f"quadratic approximation must be increasing and concave at its "
                f"center; got c1={self.c1}, c2={self.c2}"
            )

    def __call__(self, z):
        dz = np.asarray(z, dtype=float) - self.center
        out = self.c0 + self.c1 * dz + self.c2 * dz * dz
        return float(out) if np.isscalar(z) else out


def _pointwise(spec: UtilitySpec, z, formula):
    """``formula(a, z)``, raising DomainError outside the domain; floats
    for a scalar z."""
    arr = np.asarray(z, dtype=float)
    lo = spec.domain_min
    if lo > -math.inf and np.any(arr <= lo):
        offender = float(arr[arr <= lo].min())
        raise DomainError(f"{spec.identifier} is undefined at z={offender} (domain z > {lo})")
    with np.errstate(over="ignore", divide="ignore"):  # past the float range: inf or 0
        out = formula(spec.a, arr)
    if arr.ndim:
        return out
    return tuple(float(u) for u in out) if isinstance(out, tuple) else float(out)


def utility_value(spec: UtilitySpec, z):
    """U(z); raises DomainError outside the family's domain, so
    :func:`clamped_utility` moves no draw here."""
    return _pointwise(spec, z, lambda a, arr: clamped_utility(spec, arr)[0])


def utility_derivatives(spec: UtilitySpec, z):
    """Closed-form (U', U'', U''') at z."""
    return _pointwise(spec, z, _FAMILIES[spec.family].derivatives)


def ara(spec: UtilitySpec, z):
    """Absolute risk aversion -U''/U' in closed form."""
    return _pointwise(spec, z, _FAMILIES[spec.family].ara)


def taylor2(spec: UtilitySpec, center: float) -> QuadraticApprox:
    """Second-order expansion of U around ``center``."""
    c0 = utility_value(spec, center)
    u1, u2, _ = utility_derivatives(spec, center)
    return QuadraticApprox(center=center, c0=c0, c1=u1, c2=u2 / 2.0)


def approx_table(spec: UtilitySpec, grid) -> list[tuple[float, float, float]]:
    """Rows (z, U(z), Q(z)) with Q expanded around 0."""
    q = taylor2(spec, 0.0)
    return [(float(z), utility_value(spec, float(z)), q(float(z))) for z in grid]


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


def clamped_panel(x: np.ndarray, panel: Iterable[UtilitySpec]):
    """U elementwise on an array of draws under the clamping policy, for
    every utility of ``panel`` in order: yields (spec, sign, values,
    moved), where U = sign * values and ``moved`` is the boolean mask of
    the draws moved to edge + 1e-6 before U was taken, or None when none
    moved.  Whether the draws may be evaluated at all is
    :func:`over_clamp_budget` of the moved count.

    The draws are clamped once per distinct domain edge, and each utility
    on that edge gets the same ``moved`` object.  Each family's a-free
    transform is taken once per edge, so the power and neg_power rows share
    one ``log1p``.  Every utility's values are finished in one buffer, which
    holds them until the next item is taken and may be changed meanwhile.
    """
    clamped: dict[float, tuple[np.ndarray, np.ndarray | None]] = {}
    transformed: dict[tuple[float, Callable], np.ndarray] = {}
    out = None
    for spec in panel:
        family, lo = _FAMILIES[spec.family], spec.domain_min
        if lo not in clamped:
            clamped[lo] = _clamp(x, lo)
        z, moved = clamped[lo]
        key = (lo, family.transform)
        if key not in transformed:
            transformed[key] = family.transform(z)
        t = transformed[key]
        if out is None:
            out = np.empty_like(t, dtype=float)
        family.finish(spec.a, t, out)
        yield spec, family.sign, out, moved


def clamped_utility(spec: UtilitySpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """U elementwise on an array of draws, under the clamping policy:
    (U values, boolean mask of the moved draws or None), the one-utility
    case of :func:`clamped_panel`."""
    ((_, sign, values, moved),) = clamped_panel(x, (spec,))
    values *= sign
    return values, moved


def _clamp(x: np.ndarray, lo: float) -> tuple[np.ndarray, np.ndarray | None]:
    """(x with the draws at or below the edge ``lo`` moved to lo + 1e-6,
    boolean mask of the moved draws or None when none moved)."""
    if lo == -math.inf:
        return x, None
    bad = x <= lo
    if not bad.any():
        return x, None
    return np.where(bad, lo + _CLAMP_OFFSET, x), bad


def over_clamp_budget(n_clamped, n_draws):
    """True where more than ``CLAMP_BUDGET`` of ``n_draws`` draws needed
    clamping; elementwise on arrays of counts."""
    return n_clamped > CLAMP_BUDGET * n_draws


def panel_expected_utility(
    sample: np.ndarray, panel: Iterable[UtilitySpec]
) -> list[tuple[float, int]]:
    """Equal-weight expected utility of one sample under every utility of
    ``panel``: [(expected utility, number of clamped draws), ...] in panel
    order, each as :func:`sample_expected_utility` defines it.

    The values come from :func:`clamped_panel`, and each utility's sign is
    applied to the mean: negation is exact, so -mean(u) == mean(-u) bit
    for bit.  The mean is ``np.mean``'s own sum and division without its
    Python wrapper.  Raises DomainError for the first utility, in panel
    order, whose clamping budget is exceeded.
    """
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise ParameterError("expected utility requires a non-empty sample")
    n_clamped: dict[float, int] = {}
    results = []
    for spec, sign, values, moved in clamped_panel(x, panel):
        lo = spec.domain_min
        if lo not in n_clamped:
            n_clamped[lo] = 0 if moved is None else int(np.count_nonzero(moved))
        if over_clamp_budget(n_clamped[lo], x.size):
            raise DomainError(
                f"{n_clamped[lo]}/{x.size} draws below the domain edge of "
                f"{spec.identifier} exceeds the clamping budget ({CLAMP_BUDGET:g})"
            )
        mean = float(np.add.reduce(values, axis=None)) / x.size
        results.append((sign * mean, n_clamped[lo]))
    return results


def sample_expected_utility(sample: np.ndarray, spec: UtilitySpec) -> tuple[float, int]:
    """Equal-weight expected utility of a sample, with domain clamping.

    Returns (expected utility, number of clamped draws).  Draws at or
    below the domain edge are moved to edge + 1e-6; more than
    ``CLAMP_BUDGET`` of them fails the evaluation.
    """
    return panel_expected_utility(sample, (spec,))[0]


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
