"""Discrete lotteries, empirical CDFs, and pairwise decision rules.

All tests operate on exact step functions, so the stochastic-dominance
integrals are computed in closed form (piecewise-constant and
piecewise-linear integration); the only tolerance is ``TOL`` for
absorbing float rounding.  A pair that is equal everywhere is reported
``INDISTINGUISHABLE`` since dominance requires a strict preference for
at least one investor.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .distributions import MomentSummary, central_moments
from .errors import IngestionError, ParameterError

TOL = 1e-12

# Violation identifiers returned by necessary_screen().
MEAN_CONDITION = "mean"
LEFT_TAIL_CONDITION = "left_tail"
VARIANCE_CONDITION = "variance_given_equal_means"
SKEWNESS_CONDITION = "skewness_given_equal_mean_and_variance"


class Relation(str, enum.Enum):
    FIRST_DOMINATES = "first_dominates"
    SECOND_DOMINATES = "second_dominates"
    NO_DOMINANCE = "no_dominance"
    INDISTINGUISHABLE = "indistinguishable"


class Order(enum.IntEnum):
    FIRST = 1
    SECOND = 2
    THIRD = 3


@dataclass(frozen=True)
class DominanceVerdict:
    relation: Relation
    strict: bool
    witness: float | None = None

    def __post_init__(self):
        if self.relation is Relation.INDISTINGUISHABLE and self.strict:
            raise ParameterError("indistinguishable verdicts cannot be strict")


def _skewness(var: float, m3: float) -> float:
    """Standardized third moment; 0 at zero variance by convention."""
    return 0.0 if var == 0.0 else m3 / var**1.5


@dataclass(frozen=True)
class DiscreteLottery:
    """Finite outcome/probability pairs, canonicalized on construction:
    values strictly increasing, duplicates merged, probabilities finite,
    positive and summing to 1 within ``TOL``.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float).ravel()
        probs = np.array(self.probs, dtype=float).ravel()
        if values.size == 0:
            raise ParameterError("a lottery needs at least one outcome")
        if values.size != probs.size:
            raise ParameterError("values and probabilities must align")
        if not np.all(np.isfinite(values)):
            raise ParameterError("lottery outcomes must be finite")
        if not np.all(np.isfinite(probs)):
            raise ParameterError("lottery probabilities must be finite")
        if np.any(probs <= 0.0):
            raise ParameterError("lottery probabilities must be > 0")
        total = float(np.sum(probs))
        if abs(total - 1.0) > TOL:
            raise ParameterError(f"probabilities sum to {total}, not 1")
        uniq, inverse = np.unique(values, return_inverse=True)
        merged = np.bincount(inverse, weights=probs, minlength=uniq.size)
        uniq.setflags(write=False)
        merged.setflags(write=False)
        object.__setattr__(self, "values", uniq)
        object.__setattr__(self, "probs", merged)

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteLottery":
        vals = [v for v, _ in pairs]
        ps = [p for _, p in pairs]
        return cls(np.array(vals, dtype=float), np.array(ps, dtype=float))

    def mean(self) -> float:
        return float(np.sum(self.values * self.probs))

    def variance(self) -> float:
        return central_moments(self.values, self.probs)[1]

    def std(self) -> float:
        return math.sqrt(self.variance())

    def skewness(self) -> float:
        _, var, m3, _ = central_moments(self.values, self.probs)
        return _skewness(var, m3)

    def min_value(self) -> float:
        return float(self.values[0])

    def max_value(self) -> float:
        return float(self.values[-1])

    def moment_summary(self) -> MomentSummary:
        m, var, m3, m4 = central_moments(self.values, self.probs)
        n = int(self.values.size)
        if var == 0.0:
            return MomentSummary(m, 0.0, 0.0, 0.0, n)
        return MomentSummary(
            mean=m,
            std=math.sqrt(var),
            skewness=_skewness(var, m3),
            kurtosis=m4 / var**2,
            n=n,
        )

    def affine(self, scale: float, shift: float) -> "DiscreteLottery":
        """Lottery of scale*value + shift; scale must be positive."""
        if scale <= 0.0:
            raise ParameterError("affine scale must be > 0")
        return DiscreteLottery(self.values * scale + shift, self.probs.copy())


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Right-continuous step CDF on a sorted support.

    Zero-mass support points are permitted (they arise when a grid is
    refined); probability masses are the first differences of the CDF.
    """

    support: np.ndarray
    cdf: np.ndarray

    def __post_init__(self):
        support = np.array(self.support, dtype=float).ravel()
        values = np.array(self.cdf, dtype=float).ravel()
        if support.size == 0:
            raise ParameterError("empty support")
        if support.size != values.size:
            raise ParameterError("support and cdf must align")
        if np.any(np.diff(support) <= 0.0):
            raise ParameterError("support must be strictly increasing")
        if np.any(np.diff(values) < -TOL):
            raise ParameterError("cdf must be non-decreasing")
        if abs(values[-1] - 1.0) > TOL:
            raise ParameterError(f"cdf must reach 1, got {values[-1]}")
        support.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "cdf", values)

    @property
    def probs(self) -> np.ndarray:
        return np.diff(self.cdf, prepend=0.0)

    def at(self, x):
        """CDF value(s) at x; 0 below the support."""
        idx = np.searchsorted(self.support, x, side="right") - 1
        out = np.where(idx >= 0, self.cdf[np.maximum(idx, 0)], 0.0)
        return float(out) if np.isscalar(x) else out

    def _mass_points(self) -> tuple[np.ndarray, np.ndarray]:
        p = self.probs
        keep = p > 0.0
        return self.support[keep], p[keep]

    def mean(self) -> float:
        v, p = self._mass_points()
        return float(np.sum(v * p))

    def variance(self) -> float:
        return central_moments(*self._mass_points())[1]

    def skewness(self) -> float:
        _, var, m3, _ = central_moments(*self._mass_points())
        return _skewness(var, m3)

    def min_value(self) -> float:
        v, _ = self._mass_points()
        return float(v[0])

    def max_value(self) -> float:
        v, _ = self._mass_points()
        return float(v[-1])


def ecdf(source) -> EmpiricalDistribution:
    """Step CDF of a lottery (jumps = probabilities) or sample
    (jumps = multiplicity / n)."""
    if isinstance(source, DiscreteLottery):
        cum = np.cumsum(source.probs)
        cum[-1] = 1.0
        return EmpiricalDistribution(source.values.copy(), cum)
    x = np.asarray(source, dtype=float).ravel()
    if x.size == 0:
        raise ParameterError("ecdf requires a non-empty sample")
    uniq, counts = np.unique(x, return_counts=True)
    cum = np.cumsum(counts) / x.size
    cum[-1] = 1.0
    return EmpiricalDistribution(uniq, cum)


def _merged_support(F: EmpiricalDistribution, G: EmpiricalDistribution) -> np.ndarray:
    return np.union1d(F.support, G.support)


def _two_sided_verdict(diff: np.ndarray, xs: np.ndarray) -> DominanceVerdict:
    """Verdict from a signed pointwise margin: the first distribution
    dominates where ``diff`` is >= 0 everywhere and > 0 somewhere."""
    first_ok = bool(np.all(diff >= -TOL))
    second_ok = bool(np.all(diff <= TOL))
    if first_ok and second_ok:
        return DominanceVerdict(Relation.INDISTINGUISHABLE, strict=False)
    if first_ok:
        witness = float(xs[np.argmax(diff > TOL)])
        return DominanceVerdict(Relation.FIRST_DOMINATES, strict=True, witness=witness)
    if second_ok:
        witness = float(xs[np.argmax(diff < -TOL)])
        return DominanceVerdict(Relation.SECOND_DOMINATES, strict=True, witness=witness)
    witness = float(xs[np.argmax(diff < -TOL)])
    return DominanceVerdict(Relation.NO_DOMINANCE, strict=False, witness=witness)


def fsd_test(F: EmpiricalDistribution, G: EmpiricalDistribution) -> DominanceVerdict:
    """First-order rule: F dominates iff F(x) <= G(x) everywhere with a
    strict inequality somewhere."""
    xs = _merged_support(F, G)
    return _two_sided_verdict(G.at(xs) - F.at(xs), xs)


def _running_integral(F: EmpiricalDistribution, G: EmpiricalDistribution):
    """(xs, I) with I[j] the exact integral of (G - F) from the global
    minimum up to xs[j]; exact because the integrand is a step function."""
    xs = _merged_support(F, G)
    d = G.at(xs) - F.at(xs)
    integral = np.zeros(xs.size)
    if xs.size > 1:
        integral[1:] = np.cumsum(d[:-1] * np.diff(xs))
    return xs, integral


def ssd_test(F: EmpiricalDistribution, G: EmpiricalDistribution) -> DominanceVerdict:
    """Second-order rule: F dominates iff the running integral of (G - F)
    is >= 0 at every point and strictly positive somewhere.

    The integral is piecewise linear, so its extrema over each segment sit
    at segment endpoints; checking the merged support points is exact.
    """
    xs, integral = _running_integral(F, G)
    return _two_sided_verdict(integral, xs)


def tsd_test(F: EmpiricalDistribution, G: EmpiricalDistribution) -> DominanceVerdict:
    """Third-order rule: twice-integrated difference >= 0 everywhere AND
    mean(F) >= mean(G), with at least one strict inequality.

    The inner integral is piecewise linear, so the outer one is piecewise
    quadratic; it is checked at all breakpoints plus the interior
    stationary points where the inner integral crosses zero.
    """
    xs, inner = _running_integral(F, G)
    dx = np.diff(xs)
    outer = np.zeros(xs.size)
    if xs.size > 1:
        outer[1:] = np.cumsum((inner[:-1] + inner[1:]) / 2.0 * dx)
    candidates = list(outer)
    witnesses = list(xs)
    for j in range(xs.size - 1):
        a, b = inner[j], inner[j + 1]
        if (a > TOL and b < -TOL) or (a < -TOL and b > TOL):
            t = dx[j] * a / (a - b)
            candidates.append(outer[j] + a * t / 2.0)
            witnesses.append(xs[j] + t)
    candidates = np.array(candidates)
    witnesses = np.array(witnesses)
    mean_f = F.mean()
    mean_g = G.mean()

    def side(vals, dmean):
        ok = bool(np.all(vals >= -TOL)) and dmean >= -TOL
        strict = bool(np.any(vals > TOL)) or dmean > TOL
        return ok, strict

    f_ok, f_strict = side(candidates, mean_f - mean_g)
    g_ok, g_strict = side(-candidates, mean_g - mean_f)
    if f_ok and g_ok:
        return DominanceVerdict(Relation.INDISTINGUISHABLE, strict=False)
    if f_ok and f_strict:
        above = candidates > TOL
        witness = float(witnesses[np.argmax(above)]) if above.any() else None
        return DominanceVerdict(Relation.FIRST_DOMINATES, strict=True, witness=witness)
    if g_ok and g_strict:
        below = candidates < -TOL
        witness = float(witnesses[np.argmax(below)]) if below.any() else None
        return DominanceVerdict(Relation.SECOND_DOMINATES, strict=True, witness=witness)
    below = candidates < -TOL
    witness = float(witnesses[np.argmax(below)]) if below.any() else None
    return DominanceVerdict(Relation.NO_DOMINANCE, strict=False, witness=witness)


def satisfies_mv(m1: MomentSummary, m2: MomentSummary) -> bool:
    """Weak mean-variance rule: mean1 >= mean2 and std1 <= std2."""
    return m1.mean >= m2.mean and m1.std <= m2.std


def mvc_test(m1: MomentSummary, m2: MomentSummary) -> DominanceVerdict:
    """Mean-variance criterion with the strict-inequality requirement;
    the weak form is :func:`satisfies_mv`.  Equal moments are reported
    indistinguishable."""
    f_ok = satisfies_mv(m1, m2)
    g_ok = satisfies_mv(m2, m1)
    if f_ok and g_ok:
        return DominanceVerdict(Relation.INDISTINGUISHABLE, strict=False)
    if f_ok:
        return DominanceVerdict(Relation.FIRST_DOMINATES, strict=True)
    if g_ok:
        return DominanceVerdict(Relation.SECOND_DOMINATES, strict=True)
    return DominanceVerdict(Relation.NO_DOMINANCE, strict=False)


def quadratic_dominance_test(
    F: EmpiricalDistribution, G: EmpiricalDistribution
) -> DominanceVerdict:
    """Necessary-and-sufficient rule for quadratic utility 2Kx - x^2 with
    the bliss point K at the maximum of both supports:

        mean1 >= mean2  and  2*dmean*(K - mean_avg) - dvar >= 0,

    with at least one strict inequality.  Supports of step functions are
    always bounded, which the rule requires.
    """
    k = max(F.max_value(), G.max_value())
    mu1, mu2 = F.mean(), G.mean()
    v1, v2 = F.variance(), G.variance()

    def side(mu_a, mu_b, var_a, var_b):
        dmu = mu_a - mu_b
        margin = 2.0 * dmu * (k - (mu_a + mu_b) / 2.0) - (var_a - var_b)
        ok = dmu >= -TOL and margin >= -TOL
        strict = dmu > TOL or margin > TOL
        return ok, strict

    f_ok, f_strict = side(mu1, mu2, v1, v2)
    g_ok, g_strict = side(mu2, mu1, v2, v1)
    if f_ok and g_ok and not (f_strict or g_strict):
        return DominanceVerdict(Relation.INDISTINGUISHABLE, strict=False)
    if f_ok and f_strict:
        return DominanceVerdict(Relation.FIRST_DOMINATES, strict=True, witness=k)
    if g_ok and g_strict:
        return DominanceVerdict(Relation.SECOND_DOMINATES, strict=True, witness=k)
    return DominanceVerdict(Relation.NO_DOMINANCE, strict=False, witness=k)


def necessary_screen(
    F: EmpiricalDistribution, G: EmpiricalDistribution, order: Order
) -> list[str]:
    """Violated necessary conditions for "F dominates G" at the given order.

    An empty list means no necessary condition rules dominance out; it is
    NOT a dominance certificate.  First order requires a strictly larger
    mean; second and third allow equality but then constrain the variance
    (and, at third order with equal variances, the skewness).
    """
    order = Order(order)
    violations = []
    mean_f, mean_g = F.mean(), G.mean()
    if order is Order.FIRST:
        if not mean_f > mean_g + TOL:
            violations.append(MEAN_CONDITION)
    elif not mean_f >= mean_g - TOL:
        violations.append(MEAN_CONDITION)
    if not F.min_value() >= G.min_value() - TOL:
        violations.append(LEFT_TAIL_CONDITION)
    if order in (Order.SECOND, Order.THIRD) and abs(mean_f - mean_g) <= TOL:
        var_f, var_g = F.variance(), G.variance()
        if not var_f <= var_g + TOL:
            violations.append(VARIANCE_CONDITION)
        if order is Order.THIRD and abs(var_f - var_g) <= TOL:
            if not F.skewness() > G.skewness() + TOL:
                violations.append(SKEWNESS_CONDITION)
    return violations


def load_lottery(path) -> DiscreteLottery:
    """Read a ``value,probability`` CSV into a lottery."""
    values = []
    probs = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:2]] != [
                "value",
                "probability",
            ]:
                raise IngestionError(
                    f"{path}: expected header 'value,probability', got {header}"
                )
            for row_no, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) < 2:
                    raise IngestionError(f"{path}:{row_no}: expected two columns")
                try:
                    values.append(float(row[0]))
                    probs.append(float(row[1]))
                except ValueError as exc:
                    raise IngestionError(f"{path}:{row_no}: {exc}") from exc
    except OSError as exc:
        raise IngestionError(f"cannot read lottery file {path}: {exc}") from exc
    if not values:
        raise IngestionError(f"{path}: no outcomes found")
    try:
        return DiscreteLottery(np.array(values), np.array(probs))
    except ParameterError as exc:
        raise IngestionError(f"{path}: {exc}") from exc
