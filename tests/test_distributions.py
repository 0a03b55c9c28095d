import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize as scipy_optimize, stats as scipy_stats

from mvlab.distributions import (
    _GEV_SHAPE_HI,
    _GEV_SHAPE_LO,
    Family,
    GEVParams,
    GUMBEL_SKEW,
    LaplaceParams,
    MomentTarget,
    NormalParams,
    SkewNormalParams,
    StableParams,
    _bisect,
    _solve_gev_shape,
    gev_skewness,
    gls_coefficients,
    moments,
    population_moments,
    sample,
    solve_params_for_moments,
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


class TestMoments:
    def test_weighted_example(self):
        x = np.array([5.0] * 4 + [10.0] * 6)
        m = moments(x)
        assert m.mean == pytest.approx(8.0)
        assert m.std**2 == pytest.approx(6.0)

    def test_constant_sample(self):
        m = moments(np.array([3.0, 3.0, 3.0]))
        assert (m.mean, m.std, m.skewness, m.kurtosis) == (3.0, 0.0, 0.0, 0.0)

    def test_symmetric_two_point(self):
        assert moments(np.array([-1.0, 1.0])).skewness == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            moments(np.array([]))

    def test_bit_identical_recompute(self):
        x = sample(NormalParams(0, 1), 1000, seed=5)
        assert moments(x) == moments(x)


def _reference_samples():
    normal = sample(NormalParams(0.01, 0.08), 20000, seed=11)
    heavy = sample(StableParams(1.5, 0.5, 1.0, 0.0), 20000, seed=12)
    offset = sample(NormalParams(0.0, 1.0), 20000, seed=13) + 1e3
    return {"normal": normal, "stable": heavy, "offset_1e3": offset}


class TestMomentsReference:
    """``moments`` against scipy's divide-by-n skewness and kurtosis."""

    @pytest.mark.parametrize("name", ["normal", "stable", "offset_1e3"])
    def test_matches_scipy(self, name):
        x = _reference_samples()[name]
        m = moments(x)
        assert m.mean == pytest.approx(np.mean(x), rel=1e-12)
        assert m.std == pytest.approx(np.std(x), rel=1e-12)
        assert m.skewness == pytest.approx(scipy_stats.skew(x), rel=1e-12)
        assert m.kurtosis == pytest.approx(
            scipy_stats.kurtosis(x, fisher=False), rel=1e-12
        )

    @pytest.mark.parametrize("name", ["normal", "stable", "offset_1e3"])
    def test_equal_weight_lottery_matches(self, name):
        x = _reference_samples()[name]
        lottery = DiscreteLottery(x, np.full(x.size, 1.0 / x.size))
        got, want = lottery.moment_summary(), moments(x)
        assert got.n == want.n
        for field in ("mean", "std", "skewness", "kurtosis"):
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
