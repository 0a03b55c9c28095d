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
import warnings
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


class _MassMoments:
    """Moments of a finite distribution from ``_mass_points``, its outcomes
    of positive mass in increasing order and their masses."""

    @cached_property
    def _central(self) -> tuple[float, float, float]:
        """(mean, var, m3), computed once per instance; not a field, so
        equality ignores it."""
        return central_moments(*self._mass_points)

    def mean(self) -> float:
        return self._central[0]

    def variance(self) -> float:
        return self._central[1]

    def skewness(self) -> float:
        return self.moment_summary().skewness

    def min_value(self) -> float:
        return float(self._mass_points[0][0])

    def max_value(self) -> float:
        return float(self._mass_points[0][-1])

    def moment_summary(self) -> MomentSummary:
        return MomentSummary.from_central(*self._central)


@dataclass(frozen=True)
class DiscreteLottery(_MassMoments):
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
        order = np.argsort(values)
        ranked = values[order]
        if np.all(ranked[1:] != ranked[:-1]):
            # Nothing to merge: a bin of one weight sums to that weight.
            values, probs = ranked, probs[order]
        else:
            values, inverse = np.unique(values, return_inverse=True)
            probs = np.bincount(inverse, weights=probs, minlength=values.size)
        values.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteLottery":
        vals = [v for v, _ in pairs]
        ps = [p for _, p in pairs]
        return cls(np.array(vals, dtype=float), np.array(ps, dtype=float))

    @property
    def _mass_points(self) -> tuple[np.ndarray, np.ndarray]:
        return self.values, self.probs

    def affine(self, scale: float, shift: float) -> "DiscreteLottery":
        """Lottery of scale*value + shift; scale must be positive."""
        if scale <= 0.0:
            raise ParameterError("affine scale must be > 0")
        return DiscreteLottery(self.values * scale + shift, self.probs.copy())


@dataclass(frozen=True)
class EmpiricalDistribution(_MassMoments):
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
        # NaN fails each check; with finite ends, an increasing support is finite.
        if not (np.isfinite(support[0]) and np.isfinite(support[-1])
                and np.all(np.diff(support) > 0.0)):
            raise ParameterError("support must be finite and strictly increasing")
        if not np.all(np.diff(values) >= -TOL):
            raise ParameterError("cdf must be non-decreasing")
        if not values[0] >= -TOL:
            raise ParameterError(f"cdf must start at or above 0, got {values[0]}")
        if not abs(values[-1] - 1.0) <= TOL:
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

    @cached_property
    def _mass_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Support points with positive mass and their masses, computed
        once per instance; not a field, so equality ignores it."""
        p = self.probs
        keep = p > 0.0
        return self.support[keep], p[keep]


def ecdf(source) -> EmpiricalDistribution:
    """Step CDF of a lottery (jumps = probabilities) or finite sample
    (jumps = multiplicity / n).  A lottery's CDF keeps the lottery's own
    masses for its moments, so both report the same moments bit for bit,
    even for an atom too small to move the running CDF."""
    if isinstance(source, DiscreteLottery):
        cum = np.cumsum(source.probs)
        cum[-1] = 1.0
        dist = EmpiricalDistribution(source.values.copy(), cum)
        dist.__dict__["_mass_points"] = source._mass_points
        return dist
    x = np.asarray(source, dtype=float).ravel()
    if x.size == 0:
        raise ParameterError("ecdf requires a non-empty sample")
    uniq, counts = np.unique(x, return_counts=True)
    cum = np.cumsum(counts) / x.size
    cum[-1] = 1.0
    return EmpiricalDistribution(uniq, cum)


class _Merged(NamedTuple):
    """A pair of step CDFs F, G on their merged support ``xs``: ``diff`` is
    G - F there, ``dx`` the segment widths and ``integral[j]`` the exact
    integral of G - F from ``xs[0]`` up to ``xs[j]`` (exact because the
    integrand is a step function)."""

    xs: np.ndarray
    diff: np.ndarray
    dx: np.ndarray
    integral: np.ndarray


def _merge(F: EmpiricalDistribution, G: EmpiricalDistribution) -> _Merged:
    """Merge the two sorted supports in one pass: NumPy's stable sort of
    G's points followed by F's finds the two sorted runs and merges them.
    A point of G thus goes before an equal point of F, so a run of equal
    points ends on F's: the merged support keeps the first argument's
    bits (-0.0 against 0.0), and the point counts there take in both
    jumps."""
    both = np.concatenate((G.support, F.support))
    order = np.argsort(both, kind="stable")
    merged = both[order]
    last = np.flatnonzero(np.append(merged[1:] != merged[:-1], True))
    xs = merged[last]
    n_g = np.cumsum(order < G.support.size)[last]
    diff = np.append(0.0, G.cdf)[n_g] - np.append(0.0, F.cdf)[last + 1 - n_g]
    dx = np.diff(xs)
    integral = np.zeros(xs.size)
    integral[1:] = np.cumsum(diff[:-1] * dx)
    return _Merged(xs, diff, dx, integral)


def _merged(F: EmpiricalDistribution, G: EmpiricalDistribution) -> _Merged:
    """:func:`_merge` of (F, G), built once for the rules of one pair: F
    keeps it for its last partner only, holds that partner weakly, and
    frees it with itself."""
    memo = F.__dict__.get("_merged_with")
    if memo is None or memo[0]() is not G:
        memo = (weakref.ref(G), _merge(F, G))
        F.__dict__["_merged_with"] = memo
    return memo[1]


def _two_sided_verdict(
    margin: np.ndarray, xs: np.ndarray, dmean: float = 0.0
) -> DominanceVerdict:
    """Verdict from a signed pointwise margin at ``xs`` and a mean
    difference: the first distribution dominates where both are >= 0
    everywhere and one is > 0 somewhere.  The witness is the first point
    where the margin decides the verdict, or None when none does."""
    first_ok = bool(np.all(margin >= -TOL)) and dmean >= -TOL
    second_ok = bool(np.all(margin <= TOL)) and dmean <= TOL
    if first_ok and second_ok:
        return DominanceVerdict(Relation.INDISTINGUISHABLE, strict=False)
    decides = margin > TOL if first_ok else margin < -TOL
    witness = float(xs[np.argmax(decides)]) if decides.any() else None
    if first_ok:
        return DominanceVerdict(Relation.FIRST_DOMINATES, strict=True, witness=witness)
    if second_ok:
        return DominanceVerdict(Relation.SECOND_DOMINATES, strict=True, witness=witness)
    return DominanceVerdict(Relation.NO_DOMINANCE, strict=False, witness=witness)


def fsd_test(F: EmpiricalDistribution, G: EmpiricalDistribution) -> DominanceVerdict:
    """First-order rule: F dominates iff F(x) <= G(x) everywhere with a
    strict inequality somewhere."""
    pair = _merged(F, G)
    return _two_sided_verdict(pair.diff, pair.xs)


def ssd_test(F: EmpiricalDistribution, G: EmpiricalDistribution) -> DominanceVerdict:
    """Second-order rule: F dominates iff the running integral of (G - F)
    is >= 0 at every point and strictly positive somewhere.

    The integral is piecewise linear, so its extrema over each segment sit
    at segment endpoints; checking the merged support points is exact.
    """
    pair = _merged(F, G)
    return _two_sided_verdict(pair.integral, pair.xs)


def tsd_test(F: EmpiricalDistribution, G: EmpiricalDistribution) -> DominanceVerdict:
    """Third-order rule: twice-integrated difference >= 0 everywhere AND
    mean(F) >= mean(G), with at least one strict inequality.

    The inner integral is piecewise linear, so the outer one is piecewise
    quadratic; it is checked at all breakpoints plus the interior
    stationary points where the inner integral crosses zero, which follow
    the breakpoints in segment order.
    """
    xs, _, dx, inner = _merged(F, G)
    outer = np.zeros(xs.size)
    outer[1:] = np.cumsum((inner[:-1] + inner[1:]) / 2.0 * dx)
    a, b = inner[:-1], inner[1:]
    crossing = ((a > TOL) & (b < -TOL)) | ((a < -TOL) & (b > TOL))
    a, b = a[crossing], b[crossing]
    t = dx[crossing] * a / (a - b)
    candidates = np.concatenate((outer, outer[:-1][crossing] + a * t / 2.0))
    points = np.concatenate((xs, xs[:-1][crossing] + t))
    return _two_sided_verdict(candidates, points, F.mean() - G.mean())


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


def csv_rows(path, kind: str):
    """Stream a CSV file: first its header row (None for an empty file),
    then ``(row_no, cells)`` for each non-blank row, numbered from 2.  A
    file that cannot be opened, decoded or split into fields raises
    :class:`IngestionError` naming ``kind``."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            yield next(reader, None)
            for row_no, row in enumerate(reader, start=2):
                if any(map(str.strip, row)):
                    yield row_no, row
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise IngestionError(f"cannot read {kind} file {path}: {exc}") from exc


def splits_like_csv(raw: bytes) -> bool:
    """True when no quote character and no line as long as csv's
    field-size limit occur in ``raw``: on such bytes a split on commas and
    line ends gives the cells :func:`csv_rows` gives, since csv parses
    quoted cells its own way and rejects a field that long, and a split
    does neither.  One byte search for ``"``, and a full newline scan only
    when some aligned block of half the limit holds no newline, since a
    line as long as the limit would cover a whole block."""
    if b'"' in raw:
        return False
    limit = csv.field_size_limit()
    step = max(limit // 2, 1)
    if all(raw.find(b"\n", i, i + step) >= 0 for i in range(0, len(raw), step)):
        return True
    breaks = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == ord("\n"))
    return np.diff(breaks, prepend=-1, append=len(raw)).max() <= limit


def _lottery_block(path) -> tuple[np.ndarray, np.ndarray] | None:
    """The value and probability columns of the block under the header,
    parsed by NumPy's C reader, or None when the file needs
    :func:`load_lottery`'s row loop: bytes that fail
    :func:`splits_like_csv`, a cell ``loadtxt`` cannot read, or a
    warning.  The file's bytes are read once for the checks."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        if not splits_like_csv(raw):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            block = np.loadtxt(
                path, delimiter=",", skiprows=1, usecols=(0, 1), comments=None,
                ndmin=2, encoding="utf-8",
            )
        return block[:, 0], block[:, 1]
    except (OSError, ValueError, Warning):
        return None


def load_lottery(path) -> DiscreteLottery:
    """Read a ``value,probability`` CSV into a lottery.  The block under
    the header goes through :func:`_lottery_block` first; the row loop
    reads only the files it hands back, and names every row error."""
    records = csv_rows(path, "lottery")
    header = next(records)
    if header is None or [h.strip().lower() for h in header[:2]] != ["value", "probability"]:
        raise IngestionError(f"{path}: expected header 'value,probability', got {header}")
    columns = _lottery_block(path)
    if columns is None:
        values = []
        probs = []
        for row_no, row in records:
            if len(row) < 2:
                raise IngestionError(f"{path}:{row_no}: expected two columns")
            try:
                values.append(float(row[0]))
                probs.append(float(row[1]))
            except ValueError as exc:
                raise IngestionError(f"{path}:{row_no}: {exc}") from exc
        if not values:
            raise IngestionError(f"{path}: no outcomes found")
        columns = values, probs
    records.close()
    try:
        return DiscreteLottery(*columns)
    except ParameterError as exc:
        raise IngestionError(f"{path}: {exc}") from exc
