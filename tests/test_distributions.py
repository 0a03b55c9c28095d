import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import optimize as scipy_optimize, stats as scipy_stats

from mvlab.distributions import (
    _GEV_SHAPE_HI,
    _GEV_SHAPE_LO,
    Family,
    GEVParams,
    GUMBEL_SKEW,
    LaplaceParams,
    MomentSummary,
    MomentTarget,
    NormalParams,
    SkewNormalParams,
    StableParams,
    _bisect,
    _gev_moment_factors,
    _solve_gev_shape,
    central_moments,
    gev_skewness,
    gls_coefficients,
    moments,
    population_moments,
    sample,
    solve_params_for_moments,
)
from mvlab.rng import spawn_rng
from mvlab.simulation import (
    STABLE_SKEW_1_WINDOW,
    STABLE_SKEW_2_WINDOW,
    STABLE_STABILITY_WINDOW,
)
from mvlab.dominance import DiscreteLottery, ecdf
from mvlab.errors import (
    InfeasibleTargetError,
    ParameterError,
    UnsupportedFamilyError,
)

SEED_PANEL = list(range(101, 111))


class TestParamValidation:
    def test_scale_must_be_positive(self):
        with pytest.raises(ParameterError):
            NormalParams(0.0, 0.0)
        with pytest.raises(ParameterError):
            LaplaceParams(0.0, -1.0)
        with pytest.raises(ParameterError):
            SkewNormalParams(0.0, -0.1, 1.0)
        with pytest.raises(ParameterError):
            GEVParams(0.0, 0.0, 0.1)
        with pytest.raises(ParameterError):
            StableParams(1.8, 0.0, 0.0, 0.0)

    def test_stable_stability_range(self):
        with pytest.raises(ParameterError):
            StableParams(1.0, 0.0, 1.0, 0.0)  # mean must exist
        with pytest.raises(ParameterError):
            StableParams(2.1, 0.0, 1.0, 0.0)
        StableParams(2.0, 0.0, 1.0, 0.0)

    def test_stable_skew_range(self):
        with pytest.raises(ParameterError):
            StableParams(1.8, 1.5, 1.0, 0.0)


class TestSampling:
    def test_determinism(self):
        p = NormalParams(0.0, 1.0)
        a = sample(p, 5, seed=7)
        b = sample(p, 5, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample(p, 5, seed=8))

    def test_sample_size(self):
        assert sample(LaplaceParams(0, 1), 17, seed=1).shape == (17,)
        with pytest.raises(ParameterError):
            sample(NormalParams(0, 1), 0, seed=1)

    def test_normal_large_sample_moments(self):
        x = sample(NormalParams(0.01, 0.08), 10**6, seed=1)
        m = moments(x)
        assert abs(m.mean - 0.01) < 0.001
        assert abs(m.std - 0.08) < 0.0008

    def test_laplace_variance_identity(self):
        # population variance is 2*b^2
        sigma = 0.08
        x = sample(LaplaceParams(0.0, sigma / math.sqrt(2.0)), 10**6, seed=2)
        assert abs(moments(x).std - sigma) < 0.01 * sigma

    def test_stable_gaussian_limit(self):
        # stability 2 collapses to N(location, 2*scale^2)
        x = sample(StableParams(2.0, 0.7, 0.05, 0.01), 10**6, seed=3)
        m = moments(x)
        assert abs(m.mean - 0.01) < 0.001
        assert abs(m.std - math.sqrt(2) * 0.05) < 0.001
        assert abs(m.skewness) < 0.02

    def test_stable_location_is_mean(self):
        x = sample(StableParams(1.8, 0.8, 0.02, 0.01), 10**6, seed=4)
        assert abs(moments(x).mean - 0.01) < 0.002


def _skew_normal_before(p, n, rng):
    # verbatim copy of _sample_skew_normal before it worked in place
    delta = p.shape / math.sqrt(1.0 + p.shape * p.shape)
    u0 = rng.standard_normal(n)
    u1 = rng.standard_normal(n)
    z = delta * np.abs(u0) + math.sqrt(1.0 - delta * delta) * u1
    return p.xi + p.omega * z


def _gev_before(p, n, rng):
    # verbatim copy of _sample_gev before it worked in place
    t = rng.standard_exponential(n)
    if p.shape == 0.0:
        return p.location - p.scale * np.log(t)
    return p.location + p.scale * np.expm1(-p.shape * np.log(t)) / p.shape


def _stable_before(p, n, rng):
    # verbatim copy of _sample_stable before it worked in place
    alpha = p.stability
    beta = p.skew
    v = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = rng.standard_exponential(n)
    tan_half = math.tan(math.pi * alpha / 2.0)
    theta0 = math.atan(beta * tan_half) / alpha
    s = (1.0 + beta * beta * tan_half * tan_half) ** (1.0 / (2.0 * alpha))
    core = (
        np.sin(alpha * (v + theta0))
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v - alpha * (v + theta0)) / w) ** ((1.0 - alpha) / alpha)
    )
    return p.location + p.scale * s * core


def _stable_window_params():
    """Both ends of the stability window with each skew window's ends,
    plus three draws from the windows as ``_attempt_stable`` makes them,
    and the Gaussian limit (stability 2, a square-root exponent)."""
    params = [
        StableParams(stability, skew, 0.03, 0.01)
        for stability in STABLE_STABILITY_WINDOW
        for skew in STABLE_SKEW_1_WINDOW + STABLE_SKEW_2_WINDOW
    ]
    rng = np.random.default_rng(20)
    for _ in range(3):
        stability = float(rng.uniform(*STABLE_STABILITY_WINDOW))
        for window in (STABLE_SKEW_1_WINDOW, STABLE_SKEW_2_WINDOW):
            params.append(StableParams(stability, float(rng.uniform(*window)), 1.0, 0.0))
    return params + [StableParams(2.0, 0.7, 0.05, 0.01)]


@pytest.mark.parametrize("n", [1000, 1001, 20_000, 100_000])
@pytest.mark.parametrize(
    "params, before",
    [
        (SkewNormalParams(0.01, 0.03, 4.0), _skew_normal_before),
        (SkewNormalParams(-2.5, 1.7, -0.3), _skew_normal_before),
        (GEVParams(0.01, 0.02, 0.0), _gev_before),
        (GEVParams(0.01, 0.02, 0.2), _gev_before),
        (GEVParams(-1.0, 3.0, -0.25), _gev_before),
    ]
    + [(p, _stable_before) for p in _stable_window_params()],
)
def test_samplers_bit_identical_to_former_expressions(params, before, n):
    for seed in (1, 9001, 123_456_789):
        got = sample(params, n, seed)
        want = before(params, n, spawn_rng(seed))
        assert got.tobytes() == want.tobytes(), seed


class TestMoments:
    def test_weighted_example(self):
        x = np.array([5.0] * 4 + [10.0] * 6)
        m = moments(x)
        assert m.mean == pytest.approx(8.0)
        assert m.std**2 == pytest.approx(6.0)

    def test_constant_sample(self):
        m = moments(np.array([3.0, 3.0, 3.0]))
        assert (m.mean, m.std, m.skewness) == (3.0, 0.0, 0.0)

    def test_symmetric_two_point(self):
        assert moments(np.array([-1.0, 1.0])).skewness == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            moments(np.array([]))

    def test_bit_identical_recompute(self):
        x = sample(NormalParams(0, 1), 1000, seed=5)
        assert moments(x) == moments(x)


def _np_mean_central_moments(values):
    """The unweighted ``central_moments`` as it was, through ``np.mean``."""
    mean = float(np.mean(values))
    centered = values - mean
    squared = centered * centered
    return (mean, float(np.mean(squared)), float(np.mean(squared * centered)),
            float(np.mean(squared * squared)))


@given(
    base=hnp.arrays(
        np.float64, st.integers(1, 400),
        elements=st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-300, 0.1]),
    ),
    layout=st.sampled_from(["contiguous", "strided", "2-D", "2-D transposed"]),
)
@settings(max_examples=200, deadline=None)
def test_central_moments_bit_identical_to_np_mean(base, layout):
    if layout == "strided":
        values = base[::3]
    elif layout.startswith("2-D"):
        rows = max(1, base.size // 7)
        values = base[: rows * (base.size // rows)].reshape(rows, -1)
        if layout == "2-D transposed":
            values = values.T
    else:
        values = base
    got = central_moments(values)
    want = _np_mean_central_moments(values)[:3]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert all(type(x) is float for x in got)


def _reference_samples():
    normal = sample(NormalParams(0.01, 0.08), 20000, seed=11)
    heavy = sample(StableParams(1.5, 0.5, 1.0, 0.0), 20000, seed=12)
    offset = sample(NormalParams(0.0, 1.0), 20000, seed=13) + 1e3
    return {"normal": normal, "stable": heavy, "offset_1e3": offset}


class TestMomentsReference:
    """``moments`` against scipy's divide-by-n skewness."""

    @pytest.mark.parametrize("name", ["normal", "stable", "offset_1e3"])
    def test_matches_scipy(self, name):
        x = _reference_samples()[name]
        m = moments(x)
        assert m.mean == pytest.approx(np.mean(x), rel=1e-12)
        assert m.std == pytest.approx(np.std(x), rel=1e-12)
        assert m.skewness == pytest.approx(scipy_stats.skew(x), rel=1e-12)

    @pytest.mark.parametrize("name", ["normal", "stable", "offset_1e3"])
    def test_equal_weight_lottery_matches(self, name):
        x = _reference_samples()[name]
        lottery = DiscreteLottery(x, np.full(x.size, 1.0 / x.size))
        got, want = lottery.moment_summary(), moments(x)
        assert got.n == want.n
        for field in ("mean", "std", "skewness"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12)
        assert lottery.variance() == pytest.approx(want.std**2, rel=1e-12)
        assert lottery.skewness() == pytest.approx(want.skewness, rel=1e-12)

    def test_ecdf_keeps_lottery_moments(self):
        x = sample(SkewNormalParams(0.0, 1.0, 4.0), 200, seed=14)
        probs = np.arange(1.0, x.size + 1.0)
        lottery = DiscreteLottery(x, probs / probs.sum())
        dist = ecdf(lottery)
        assert dist.variance() == pytest.approx(lottery.variance(), rel=1e-12)
        assert dist.skewness() == pytest.approx(lottery.skewness(), rel=1e-12)


class TestSolver:
    def test_normal_identity(self):
        p = solve_params_for_moments(Family.NORMAL, MomentTarget(0.01, 0.08))
        assert (p.mu, p.sigma) == (0.01, 0.08)

    def test_laplace_scale(self):
        p = solve_params_for_moments(Family.LAPLACE, MomentTarget(0.0, 0.08))
        assert p.b == pytest.approx(0.08 / math.sqrt(2.0))

    def test_symmetric_rejects_skew_target(self):
        with pytest.raises(ParameterError):
            solve_params_for_moments(Family.NORMAL, MomentTarget(0.0, 1.0, 0.5))

    def test_skew_normal_symmetric_case(self):
        p = solve_params_for_moments(Family.SKEW_NORMAL, MomentTarget(0.0, 1.0, 0.0))
        assert (p.xi, p.omega, p.shape) == (0.0, 1.0, 0.0)

    def test_skew_normal_infeasible(self):
        with pytest.raises(InfeasibleTargetError):
            solve_params_for_moments(Family.SKEW_NORMAL, MomentTarget(0.0, 1.0, 0.9953))

    def test_stable_unsupported(self):
        with pytest.raises(UnsupportedFamilyError):
            solve_params_for_moments(Family.STABLE, MomentTarget(0.0, 1.0))

    def test_gev_gumbel_limit(self):
        p = solve_params_for_moments(Family.GEV, MomentTarget(0.0, 1.0, GUMBEL_SKEW))
        assert p.shape == 0.0
        pm = population_moments(p)
        assert pm[0] == pytest.approx(0.0, abs=1e-12)
        assert pm[1] == pytest.approx(1.0)

    def test_gev_infeasible_below_range(self):
        with pytest.raises(InfeasibleTargetError):
            solve_params_for_moments(Family.GEV, MomentTarget(0.0, 1.0, -0.5))

    def test_gev_skewness_monotone(self):
        ks = np.linspace(-1 / 3 + 1e-6, 1 / 3 - 1e-6, 60)
        skews = [gev_skewness(float(k)) for k in ks]
        assert all(a < b for a, b in zip(skews, skews[1:]))

    def test_gev_shape_bisection_matches_scipy(self):
        lo, hi = _GEV_SHAPE_LO, _GEV_SHAPE_HI
        grid = np.linspace(gev_skewness(lo), 10.0, 65)[1:]
        for skew in [float(s) for s in grid] + [0.35, 0.525, 1.05, 100.0]:
            def f(k):
                return gev_skewness(k) - skew
            root = scipy_optimize.bisect(f, lo, hi, xtol=1e-15)
            assert _bisect(f, lo, hi, xtol=1e-15) == root
            assert _solve_gev_shape(skew) == root

    def test_gev_moment_factors_cached_bit_for_bit(self):
        # bench/run.py clears every mvlab lru_cache through cache_clear
        _gev_moment_factors.cache_clear()
        shapes = (-0.3, -0.01, 0.0, 1e-9, 0.2, 0.33)
        direct = [_gev_moment_factors.__wrapped__(k) for k in shapes]
        assert [_gev_moment_factors(k) for k in shapes] == direct
        assert [_gev_moment_factors(k) for k in shapes] == direct
        info = _gev_moment_factors.cache_info()
        assert (info.hits, info.misses) == (len(shapes), len(shapes))

    def test_bisection_failures(self):
        with pytest.raises(InfeasibleTargetError, match="no sign change"):
            _bisect(lambda x: x + 2.0, 0.0, 1.0, xtol=1e-12)
        with pytest.raises(InfeasibleTargetError, match="did not converge in 5"):
            _bisect(lambda x: x - 0.3, 0.0, 1.0, xtol=1e-12, maxiter=5)

    @pytest.mark.parametrize("family", [Family.SKEW_NORMAL, Family.GEV])
    @pytest.mark.parametrize("skew", [0.2, 0.6, 0.9])
    def test_population_round_trip(self, family, skew):
        target = MomentTarget(0.01, 0.08, skew)
        p = solve_params_for_moments(family, target)
        mean, std, skewness = population_moments(p)
        assert mean == pytest.approx(0.01, abs=1e-10)
        assert std == pytest.approx(0.08, abs=1e-10)
        assert skewness == pytest.approx(skew, abs=1e-9)

    @pytest.mark.parametrize("seed", SEED_PANEL)
    def test_sample_round_trip_seed_panel(self, seed):
        # one representative target per family over the fixed seed panel
        for family, skew in [
            (Family.NORMAL, None),
            (Family.LAPLACE, None),
            (Family.SKEW_NORMAL, 0.5),
            (Family.GEV, 0.5),
        ]:
            target = MomentTarget(0.01, 0.08, skew)
            p = solve_params_for_moments(family, target)
            m = moments(sample(p, 10**6, seed))
            assert abs(m.mean - 0.01) < 0.002
            assert abs(m.std - 0.08) < 0.01 * 0.08
            if skew is not None:
                assert abs(m.skewness - skew) < 0.05


class TestGLS:
    def test_centered_case(self):
        beta, gamma = gls_coefficients(0.02, 1.0, 0.02, 1.0)
        assert (beta, gamma) == (0.0, 1.0)

    def test_unit_case(self):
        beta, gamma = gls_coefficients(1.0, 2.0, 0.0, 1.0)
        assert beta == pytest.approx(1.0)
        assert gamma == pytest.approx(1.0)

    def test_zero_mean_y_rejected(self):
        with pytest.raises(ParameterError):
            gls_coefficients(1.0, 1.0, 0.0, 0.0)

    def test_negative_radicand_rejected(self):
        with pytest.raises(InfeasibleTargetError):
            gls_coefficients(2.0, 0.5, 0.0, 1.0)

    @given(
        mean_x=st.floats(-10, 10),
        r=st.floats(-1, 1),
        mean_y=st.floats(0.1, 5),
        slack=st.floats(0, 10),
    )
    # beta**2 (this test's var_x) and beta*beta round one ulp apart here;
    # the feasible input must give gamma = 0, not InfeasibleTargetError.
    @example(mean_x=0.0, r=1.175494351e-38, mean_y=0.1, slack=0.0)
    @settings(max_examples=200)
    def test_algebraic_identities(self, mean_x, r, mean_y, slack):
        beta_true = (mean_x - r) / mean_y
        var_x = beta_true**2 + slack
        beta, gamma = gls_coefficients(mean_x, var_x, r, mean_y)
        ulp = 4 * np.spacing(max(abs(var_x), 1.0))
        assert abs(beta**2 + gamma**2 - var_x) <= ulp
        assert abs(beta * mean_y + r - mean_x) <= 4 * np.spacing(max(abs(mean_x), 1.0))


_SummaryBefore = namedtuple("_SummaryBefore", "mean std skewness kurtosis n")


def _moments_before(sample_values):
    """``moments`` as written when it also took the fourth moment: its
    ``central_moments`` and ``MomentSummary.from_central`` kept verbatim,
    so that any moved bit of the mean, std or skewness shows."""

    def central_moments(values, weights=None):
        def average(a):
            if weights is None:
                return float(np.add.reduce(a, axis=None)) / a.size
            return float(np.sum(weights * a))

        mean = average(values)
        centered = values - mean
        squared = centered * centered
        return mean, average(squared), average(squared * centered), average(squared * squared)

    def from_central(mean, var, m3, m4, n):
        std = math.sqrt(var)
        if std == 0.0:
            return _SummaryBefore(mean=mean, std=0.0, skewness=0.0, kurtosis=0.0, n=n)
        try:
            skewness, kurtosis = m3 / std**3, m4 / var**2
        except (ZeroDivisionError, OverflowError):
            skewness, kurtosis = m3 / var / std, m4 / var / var
        return _SummaryBefore(mean=mean, std=std, skewness=skewness, kurtosis=kurtosis, n=n)

    x = np.asarray(sample_values, dtype=float)
    if x.ndim != 1:
        x = x.ravel()
    if x.size == 0:
        raise ParameterError("moments() requires a non-empty sample")
    return from_central(*central_moments(x), n=x.size)


def _summary_bits(summary):
    return [float(getattr(summary, f)).hex() for f in ("mean", "std", "skewness")] + [summary.n]


@pytest.mark.parametrize("layout", ["random", "constant", "strided", "2-D"])
@pytest.mark.parametrize("name", ["normal", "stable", "offset_1e3"])
def test_moments_bit_identical_to_former_body(name, layout):
    x = _reference_samples()[name][:5000]
    if layout == "constant":
        x = np.full(37, x[0])
    elif layout == "strided":
        x = x[::3]
    elif layout == "2-D":
        x = x.reshape(50, 100)
    got, want = moments(x), _moments_before(x)
    assert _summary_bits(got) == _summary_bits(want)
    assert type(got.n) is type(want.n)


def test_from_central_divides_factorwise_outside_the_float_range():
    # std**3 underflows to 0 at var = 1e-300 and var**2 overflows at 1e200
    tiny = MomentSummary.from_central(0.0, 1e-300, 1e-300, n=2)
    assert tiny.skewness == pytest.approx(1e150, rel=1e-12)
    huge = MomentSummary.from_central(0.0, 1e200, 1e300, n=2)
    assert huge.skewness == pytest.approx(1e300 / 1e200 / 1e100, rel=1e-12)
    lottery = DiscreteLottery([0.0, 1.0], [1.0, 1e-300])
    assert lottery.skewness() == pytest.approx(1e150, rel=1e-12)
