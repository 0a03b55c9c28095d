import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mvlab.cli import CLASSIC_UTILITIES
from mvlab.distributions import (
    GEVParams,
    LaplaceParams,
    NormalParams,
    SkewNormalParams,
    StableParams,
    moments,
    sample,
)
from mvlab.dominance import DiscreteLottery
from mvlab.errors import DomainError, ParameterError
from mvlab.utilities import (
    _FAMILIES,
    Expansion,
    UtilityFamily,
    UtilitySpec,
    approx_table,
    ara,
    clamped_panel,
    clamped_utility,
    expected_quadratic,
    expected_utility,
    over_clamp_budget,
    panel_expected_utility,
    round_half_away_from_zero,
    sample_expected_utility,
    table6_panel,
    taylor2,
    utility_derivatives,
    utility_value,
)

LOG1 = UtilitySpec(UtilityFamily.LOG, 1.0)
SQRT = UtilitySpec(UtilityFamily.POWER, 0.5)
CBRT = UtilitySpec(UtilityFamily.POWER, 1.0 / 3.0)


def _domain_grid(spec, n=100, margin=0.12):
    # stay off the open edge: central differences lose accuracy where the
    # higher derivatives blow up (the margin keeps the h=1e-5 truncation
    # error below 1e-6 even for neg_power a=20)
    lo = spec.domain_min
    start = -2.0 if lo == -math.inf else lo + margin
    return np.linspace(start, start + 3.0, n)


class TestSpecValidation:
    def test_power_exponent_range(self):
        with pytest.raises(ParameterError):
            UtilitySpec(UtilityFamily.POWER, 1.0)
        with pytest.raises(ParameterError):
            UtilitySpec(UtilityFamily.POWER, 0.0)

    @pytest.mark.parametrize("family", [UtilityFamily.LOG, UtilityFamily.NEG_EXP, UtilityFamily.NEG_POWER])
    def test_positive_parameter(self, family):
        with pytest.raises(ParameterError):
            UtilitySpec(family, 0.0)
        with pytest.raises(ParameterError):
            UtilitySpec(family, -1.0)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("family", list(UtilityFamily))
    def test_non_finite_parameter(self, family, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="must be finite"):
                UtilitySpec(family, a)

    def test_identifier(self):
        assert UtilitySpec(UtilityFamily.NEG_EXP, 20).identifier == "neg_exp:20"
        assert UtilitySpec(UtilityFamily.POWER, 0.5).identifier == "power:0.5"


class TestValuesAndDerivatives:
    def test_log_at_zero(self):
        assert utility_value(LOG1, 0.0) == 0.0

    def test_neg_exp_at_minus_one(self):
        assert utility_value(UtilitySpec(UtilityFamily.NEG_EXP, 1.0), -1.0) == -1.0

    def test_domain_violation_raises(self):
        with pytest.raises(DomainError):
            utility_value(LOG1, -1.0)
        with pytest.raises(DomainError):
            utility_value(SQRT, -1.5)

    def test_neg_exp_derivative_at_minus_one(self):
        for a in (0.7, 3.0, 20.0):
            u1, _, _ = utility_derivatives(UtilitySpec(UtilityFamily.NEG_EXP, a), -1.0)
            assert u1 == pytest.approx(a)

    def test_power_half_derivatives_at_zero(self):
        u1, u2, u3 = utility_derivatives(SQRT, 0.0)
        assert (u1, u2, u3) == pytest.approx((0.5, -0.25, 0.375))

    @pytest.mark.parametrize("spec", table6_panel(), ids=lambda s: s.identifier)
    def test_finite_difference_oracle(self, spec):
        # each closed-form derivative vs a central difference of the order
        # below it, so every hand-derived layer is checked independently
        h = 1e-5
        z = _domain_grid(spec)
        u1, u2, u3 = utility_derivatives(spec, z)
        fd1 = (utility_value(spec, z + h) - utility_value(spec, z - h)) / (2 * h)
        d_plus = utility_derivatives(spec, z + h)
        d_minus = utility_derivatives(spec, z - h)
        fd2 = (d_plus[0] - d_minus[0]) / (2 * h)
        fd3 = (d_plus[1] - d_minus[1]) / (2 * h)
        assert np.all(np.abs(fd1 - u1) <= 1e-6 * np.abs(u1))
        assert np.all(np.abs(fd2 - u2) <= 1e-6 * np.abs(u2))
        assert np.all(np.abs(fd3 - u3) <= 1e-6 * np.maximum(np.abs(u3), 1e-300))

    @pytest.mark.parametrize("spec", table6_panel(), ids=lambda s: s.identifier)
    def test_shape_signs_on_grid(self, spec):
        z = np.linspace(*(lambda g: (g[0], g[-1]))(_domain_grid(spec, 1000)), 1000)
        u = utility_value(spec, z)
        d1 = np.diff(u)
        assert np.all(d1 > 0)  # strictly increasing
        assert np.all(np.diff(d1) < 0)  # strictly concave


@st.composite
def _in_range_utilities(draw):
    """(spec, z): a log-uniform over the family's whole range, from 1e-300
    to 1e308 or a_max, and z anywhere inside the domain up to 1e300."""
    family = draw(st.sampled_from(list(UtilityFamily)))
    a_max = _FAMILIES[family].a_max
    a = 10.0 ** draw(st.floats(-300.0, min(math.log10(a_max), 308.0)))
    assume(a < a_max)
    spec = UtilitySpec(family, a)
    z = draw(st.floats(max(spec.domain_min, -1e300), 1e300, exclude_min=True))
    return spec, z


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=500, deadline=None)
@given(_in_range_utilities())
# a**3 overflows; a*a overflows where exp underflows; a**3 underflows where
# exp overflows; a*(a+1) overflows where (1+z)**(-a-2) underflows
@example((UtilitySpec(UtilityFamily.NEG_EXP, 1e103), 0.0))
@example((UtilitySpec(UtilityFamily.NEG_EXP, 1e200), 0.0))
@example((UtilitySpec(UtilityFamily.NEG_EXP, 1e-108), -7.09782712893384e110))
@example((UtilitySpec(UtilityFamily.NEG_POWER, 1e200), 1.0))
def test_shape_signs_over_the_whole_parameter_range(case):
    # U' >= 0, U'' <= 0 and U''' >= 0 for every a in the family's range and
    # every z in its domain, which is why building a utility runs no shape
    # test.  Past the float range a derivative rounds to 0 or to inf, never
    # to NaN or to the wrong sign; a normal float is nonzero, so wherever
    # the values are normal floats these signs are strict.
    spec, z = case
    u1, u2, u3 = utility_derivatives(spec, z)
    assert u1 >= 0.0 and u2 <= 0.0 and u3 >= 0.0, (u1, u2, u3)


class TestARA:
    def test_neg_exp_constant(self):
        spec = UtilitySpec(UtilityFamily.NEG_EXP, 3.0)
        for z in (-0.5, 0.0, 2.0):
            assert ara(spec, z) == 3.0

    def test_log_closed_form(self):
        assert ara(LOG1, 0.0) == pytest.approx(1.0)

    def test_neg_power_closed_form(self):
        assert ara(UtilitySpec(UtilityFamily.NEG_POWER, 1.0), 0.0) == pytest.approx(2.0)

    def test_power_closed_form(self):
        assert ara(SQRT, 1.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("spec", table6_panel(), ids=lambda s: s.identifier)
    def test_matches_derivative_ratio(self, spec):
        z = _domain_grid(spec, 25)
        u1, u2, _ = utility_derivatives(spec, z)
        direct = -u2 / u1
        closed = ara(spec, z)
        assert np.all(np.abs(direct - closed) <= 4 * np.spacing(np.abs(closed)))


class TestTaylor:
    def test_log_expansion_matches_printed_row(self):
        q = taylor2(LOG1, 0.0)
        assert (q.c0, q.c1, q.c2) == (0.0, 1.0, -0.5)
        assert round_half_away_from_zero(q(-0.6)) == -0.78

    def test_sqrt_expansion_at_minus_sixty(self):
        q = taylor2(SQRT, 0.0)
        assert round_half_away_from_zero(q(-0.6)) == 0.66
        assert round_half_away_from_zero(utility_value(SQRT, -0.6)) == 0.63

    def test_value_at_center_exact(self):
        for spec in table6_panel():
            q = taylor2(spec, 0.1)
            assert q(0.1) == utility_value(spec, 0.1)

    def test_increasing_concave_coefficients(self):
        for spec in table6_panel():
            q = taylor2(spec, 0.0)
            assert q.c1 > 0 and q.c2 < 0


class TestApproxTable:
    def test_log_at_one_hundred_pct(self):
        ((z, u, q),) = approx_table(LOG1, [1.0])
        assert round_half_away_from_zero(u) == 0.69
        assert round_half_away_from_zero(q) == 0.50

    def test_cbrt_at_minus_thirty(self):
        ((_, u, q),) = approx_table(CBRT, [-0.3])
        assert round_half_away_from_zero(u) == 0.89
        assert round_half_away_from_zero(q) == 0.89

    def test_expansion_point_row(self):
        for spec in (LOG1, SQRT, CBRT):
            ((_, u, q),) = approx_table(spec, [0.0])
            assert u == q

    def test_domain_violation_per_point(self):
        with pytest.raises(DomainError):
            approx_table(LOG1, [-1.2])


class TestExpectedUtility:
    def test_log_over_table3_raw_outcomes(self, table3_lotteries):
        f, g = table3_lotteries
        # paper convention: ln at the raw outcomes, i.e. log(1+z) at z = x-1
        assert expected_utility(f.affine(1.0, -1.0), LOG1) == pytest.approx(1.9678, abs=5e-5)
        assert expected_utility(g.affine(1.0, -1.0), LOG1) == pytest.approx(1.9766, abs=5e-5)

    def test_sqrt_over_table3_raw_outcomes(self, table3_lotteries):
        f, g = table3_lotteries
        assert expected_utility(f, SQRT) == pytest.approx(3.0731, abs=5e-5)
        assert expected_utility(g, SQRT) == pytest.approx(2.9230, abs=5e-5)

    def test_constant_lottery(self):
        lot = DiscreteLottery.from_pairs([(0.3, 1.0)])
        assert expected_utility(lot, LOG1) == utility_value(LOG1, 0.3)

    def test_lottery_out_of_domain_raises(self):
        lot = DiscreteLottery.from_pairs([(-1.5, 0.5), (1.0, 0.5)])
        with pytest.raises(DomainError):
            expected_utility(lot, SQRT)

    def test_sample_equal_weighting(self):
        x = np.array([0.0, 0.1, 0.2])
        assert expected_utility(x, LOG1) == pytest.approx(
            np.mean(np.log1p(x)), abs=1e-15
        )

    def test_clamping_within_budget(self):
        x = np.zeros(20000)
        x[0] = -1.5  # one offender out of 20000 = 5e-5 < budget
        eu, clamped = sample_expected_utility(x, LOG1)
        assert clamped == 1
        assert eu == pytest.approx((np.log(1e-6) + 19999 * 0.0) / 20000)

    def test_clamping_budget_exceeded(self):
        x = np.zeros(100)
        x[:3] = -2.0
        with pytest.raises(DomainError):
            sample_expected_utility(x, LOG1)


def _reference_utility(spec, z):
    # the textbook forms, with NumPy's float pow for the power families
    a = spec.a
    if spec.family is UtilityFamily.POWER:
        return (1.0 + z) ** a
    if spec.family is UtilityFamily.LOG:
        return np.log(a + z)
    if spec.family is UtilityFamily.NEG_EXP:
        return -np.exp(-a * (1.0 + z))
    return -((1.0 + z) ** (-a))


class TestEvaluator:
    @pytest.mark.parametrize("spec", table6_panel(), ids=str)
    def test_matches_textbook_form(self, spec):
        lo = spec.domain_min
        start = -2.0 if lo == -math.inf else lo + 1e-6
        grid = np.concatenate(([start, start + 1e-3], np.linspace(start, 5.0, 200)))
        want = _reference_utility(spec, grid)
        np.testing.assert_allclose(utility_value(spec, grid), want, rtol=1e-13, atol=0)
        for z in grid[:2]:
            assert utility_value(spec, float(z)) == pytest.approx(
                float(_reference_utility(spec, z)), rel=1e-13
            )

    @pytest.mark.parametrize(
        "spec", [u for u in table6_panel() if u.domain_min != -math.inf], ids=str
    )
    def test_clamped_sample_shares_code_path(self, spec):
        lo = spec.domain_min
        x = sample(NormalParams(0.01, 0.08), 20000, seed=21)
        x[[3, 7]] = [lo - 0.5, lo]
        eu, clamped = sample_expected_utility(x, spec)
        assert clamped == 2
        moved = np.where(x <= lo, lo + 1e-6, x)
        assert eu == float(np.mean(utility_value(spec, moved)))


    def test_clamp_rule_on_a_panel_of_columns(self):
        # the routines sample_expected_utility uses, on a 2-D array: the
        # mask marks the moved draws, and the budget test is elementwise
        x = np.array([[0.01, -0.9], [-0.95, 0.02], [0.03, 0.04]])
        log09 = UtilitySpec(UtilityFamily.LOG, 0.9)
        values, clamped = clamped_utility(log09, x)
        np.testing.assert_array_equal(clamped, [[False, True], [True, False], [False, False]])
        moved = np.where(clamped, -0.9 + 1e-6, x)
        np.testing.assert_array_equal(values, utility_value(log09, moved))
        assert clamped_utility(LOG1, x)[1] is None
        assert clamped_utility(UtilitySpec(UtilityFamily.NEG_EXP, 3.0), x)[1] is None
        np.testing.assert_array_equal(
            over_clamp_budget(np.array([0.0, 2.0, 3.0]), np.array([10.0, 20000.0, 20000.0])),
            [False, False, True],
        )


def _oracle_domain_min(spec):
    # the per-family formulas as written before they moved into one table,
    # kept verbatim so that any moved bit shows
    if spec.family is UtilityFamily.LOG:
        return -spec.a
    if spec.family is UtilityFamily.NEG_EXP:
        return -math.inf
    return -1.0


def _oracle_value(spec, arr):
    a = spec.a
    if spec.family is UtilityFamily.POWER:
        return np.exp(a * np.log1p(arr))
    if spec.family is UtilityFamily.LOG:
        return np.log(a + arr)
    if spec.family is UtilityFamily.NEG_EXP:
        return -np.exp(-a * (1.0 + arr))
    return -np.exp(-a * np.log1p(arr))


def _oracle_derivatives(spec, arr):
    a = spec.a
    if spec.family is UtilityFamily.POWER:
        w = 1.0 + arr
        u1 = a * w ** (a - 1.0)
        u2 = a * (a - 1.0) * w ** (a - 2.0)
        u3 = a * (a - 1.0) * (a - 2.0) * w ** (a - 3.0)
    elif spec.family is UtilityFamily.LOG:
        w = a + arr
        u1 = 1.0 / w
        u2 = -1.0 / w**2
        u3 = 2.0 / w**3
    elif spec.family is UtilityFamily.NEG_EXP:
        e = np.exp(-a * (1.0 + arr))
        u1 = a * e
        u2 = -a * a * e
        u3 = a**3 * e
    else:
        w = 1.0 + arr
        u1 = a * w ** (-a - 1.0)
        u2 = -a * (a + 1.0) * w ** (-a - 2.0)
        u3 = a * (a + 1.0) * (a + 2.0) * w ** (-a - 3.0)
    return u1, u2, u3


def _oracle_ara(spec, arr):
    a = spec.a
    if spec.family is UtilityFamily.POWER:
        return (1.0 - a) / (1.0 + arr)
    if spec.family is UtilityFamily.LOG:
        return 1.0 / (a + arr)
    if spec.family is UtilityFamily.NEG_EXP:
        return np.full_like(arr, a) if arr.ndim else a
    return (1.0 + a) / (1.0 + arr)


class TestFamilyTableOracle:
    @pytest.mark.parametrize("spec", table6_panel() + CLASSIC_UTILITIES, ids=str)
    def test_bit_identical_to_per_family_formulas(self, spec):
        lo = _oracle_domain_min(spec)
        assert spec.domain_min == lo
        start = -5.0 if lo == -math.inf else lo
        grid = start + np.concatenate((np.logspace(-9, 0, 60), np.linspace(1.0, 12.0, 4000)))
        assert np.array_equal(utility_value(spec, grid), _oracle_value(spec, grid))
        for got, want in zip(utility_derivatives(spec, grid), _oracle_derivatives(spec, grid)):
            assert np.array_equal(got, want)
        assert np.array_equal(ara(spec, grid), _oracle_ara(spec, grid))
        for z in list(grid[:60:3]) + list(grid[60::400]):
            z = float(z)
            arr = np.asarray(z)
            value = utility_value(spec, z)
            assert type(value) is float and value == float(_oracle_value(spec, arr))
            derivs = utility_derivatives(spec, z)
            assert all(type(u) is float for u in derivs)
            assert derivs == tuple(float(u) for u in _oracle_derivatives(spec, arr))
            risk = ara(spec, z)
            assert type(risk) is float and risk == float(_oracle_ara(spec, arr))


def _family_value_before(spec, z):
    """U as the family table composed it before ``utility_value`` went
    through ``clamped_utility``, kept verbatim so that any moved bit shows."""
    family = _FAMILIES[spec.family]
    t = family.transform(z)
    out = np.empty_like(t, dtype=float)  # finish and the sign work in place
    family.finish(spec.a, t, out)
    out *= family.sign
    return out


@pytest.mark.parametrize(
    "spec", table6_panel() + [UtilitySpec(UtilityFamily.LOG, 0.3)], ids=str
)
def test_utility_value_bit_identical_to_family_composition(spec):
    lo = spec.domain_min
    start = -5.0 if lo == -math.inf else lo
    grid = start + np.concatenate((np.logspace(-9, 0, 60), np.linspace(1.0, 12.0, 2000)))
    got, want = utility_value(spec, grid), _family_value_before(spec, grid)
    assert got.tobytes() == want.tobytes()
    for z in grid[::50]:
        value = utility_value(spec, float(z))
        want = float(_family_value_before(spec, np.asarray(float(z))))
        assert type(value) is float and value.hex() == want.hex()


_PANEL_SAMPLES = {
    "normal": NormalParams(0.01, 0.08),
    "laplace": LaplaceParams(0.01, 0.05),
    "skew_normal": SkewNormalParams(-0.05, 0.1, 3.0),
    "gev": GEVParams(0.0, 0.1, 0.1),
    "stable": StableParams(1.8, 0.5, 0.02, 0.01),
}


def _oracle_sample_eu(x, spec):
    # the evaluation as it was before the panel evaluator: clamp, the
    # textbook formula on the whole array, then its mean
    lo = _oracle_domain_min(spec)
    bad = x <= lo
    return float(np.mean(_oracle_value(spec, np.where(bad, lo + 1e-6, x)))), int(bad.sum())


class TestPanelEvaluator:
    PANEL = table6_panel() + CLASSIC_UTILITIES

    @pytest.mark.parametrize("n", [20_000, 100_000])
    @pytest.mark.parametrize("family", sorted(_PANEL_SAMPLES))
    def test_bit_identical_to_one_utility_evaluation(self, family, n):
        x = sample(_PANEL_SAMPLES[family], n, seed=31)
        got = panel_expected_utility(x, self.PANEL)
        assert got == [sample_expected_utility(x, u) for u in self.PANEL]
        assert got == [_oracle_sample_eu(x, u) for u in self.PANEL]
        assert all(type(eu) is float and type(k) is int for eu, k in got)

    def test_clamp_counts_per_domain_edge(self):
        x = sample(NormalParams(0.01, 0.08), 100_000, seed=32)
        x[:7] = [-1.0, -1.0, -1.5, -3.0, -0.95, -0.9, -0.999]  # budget: 10 draws
        got = panel_expected_utility(x, self.PANEL)
        assert got == [sample_expected_utility(x, u) for u in self.PANEL]
        assert got == [_oracle_sample_eu(x, u) for u in self.PANEL]
        want = {"power": 4, "neg_power": 4, "neg_exp": 0, "log:1": 4, "log:0.9": 7}
        for u, (_, n_clamped) in zip(self.PANEL, got):
            assert n_clamped == want.get(u.identifier, want.get(u.family.value))

    @pytest.mark.parametrize("offender, first_id", [(-0.95, "log:0.9"), (-1.0, "power:0.01")])
    def test_over_budget_names_first_utility_in_panel_order(self, offender, first_id):
        x = np.full(100_000, 0.01)
        x[:11] = offender  # budget: 10 draws
        k = [u.identifier for u in self.PANEL].index(first_id)
        for u in self.PANEL[:k]:
            sample_expected_utility(x, u)
        with pytest.raises(DomainError) as single:
            sample_expected_utility(x, self.PANEL[k])
        with pytest.raises(DomainError) as panel:
            panel_expected_utility(x, self.PANEL)
        assert str(panel.value) == str(single.value)

    def test_empty_sample_rejected(self):
        with pytest.raises(ParameterError, match="non-empty sample"):
            panel_expected_utility(np.array([]), self.PANEL)

    def test_empty_panel(self):
        assert panel_expected_utility(np.zeros(3), []) == []

    def test_clamped_panel_is_clamped_utility_per_row(self):
        x = sample(NormalParams(0.01, 0.08), 2_000, seed=33).reshape(40, 50)
        x[0, :3] = [-1.0, -0.95, -0.9]
        moved_by_edge = {}
        for spec, sign, values, moved in clamped_panel(x, self.PANEL):
            want_values, want_moved = clamped_utility(spec, x)
            np.testing.assert_array_equal(sign * values, want_values)
            np.testing.assert_array_equal(moved, want_moved)
            assert moved is moved_by_edge.setdefault(spec.domain_min, moved)


class TestExpectedQuadratic:
    def test_zero_variance_is_value_at_mean(self):
        for spec in table6_panel():
            assert expected_quadratic(spec, 0.02, 0.0, Expansion.AROUND_MEAN) == (
                utility_value(spec, 0.02)
            )

    def test_log_around_zero_formula(self):
        got = expected_quadratic(LOG1, 0.01, 0.0064, Expansion.AROUND_ZERO)
        assert got == pytest.approx(0.00675)

    def test_around_zero_matches_monte_carlo(self):
        # sample average of Q over draws agrees within 3 standard errors
        draws = sample(NormalParams(0.01, 0.08), 10**6, seed=11)
        q = taylor2(LOG1, 0.0)
        qs = q(draws)
        mc, se = float(np.mean(qs)), float(np.std(qs)) / 1000.0
        closed = expected_quadratic(LOG1, 0.01, 0.0064, Expansion.AROUND_ZERO)
        assert abs(closed - mc) < 3 * se

    def test_around_mean_decreasing_in_variance(self):
        rng = np.random.default_rng(3)
        for spec in table6_panel():
            for _ in range(10):
                mean = float(rng.uniform(-0.2, 0.2))
                var = float(rng.uniform(0.0, 0.04))
                lo = expected_quadratic(spec, mean, var, Expansion.AROUND_MEAN)
                hi = expected_quadratic(spec, mean, var + 1e-4, Expansion.AROUND_MEAN)
                assert hi < lo

    def test_around_mean_increasing_in_mean(self):
        # U''' >= 0 families: dE[Q]/dmean = U' + U'''*var/2 > 0
        rng = np.random.default_rng(4)
        for spec in table6_panel():
            for _ in range(10):
                mean = float(rng.uniform(-0.2, 0.2))
                var = float(rng.uniform(0.0, 0.04))
                lo = expected_quadratic(spec, mean, var, Expansion.AROUND_MEAN)
                hi = expected_quadratic(spec, mean + 1e-5, var, Expansion.AROUND_MEAN)
                assert hi > lo

    def test_quadratic_exactness_on_samples(self):
        # averaging Q over a sample equals c0 + c2 * sample variance when
        # centered at the sample mean
        rng = np.random.default_rng(5)
        x = rng.normal(0.01, 0.05, 400)
        m = moments(x)
        q = taylor2(LOG1, m.mean)
        direct = float(np.mean(q(x)))
        assert direct == pytest.approx(q.c0 + q.c2 * m.std**2, abs=1e-15)

    @given(var=st.floats(min_value=-1.0, max_value=-1e-9))
    @settings(max_examples=20)
    def test_negative_variance_rejected(self, var):
        with pytest.raises(ParameterError):
            expected_quadratic(LOG1, 0.0, var, Expansion.AROUND_MEAN)


class TestPanel:
    def test_table6_panel_composition(self):
        panel = table6_panel()
        assert len(panel) == 24
        by_family = {}
        for spec in panel:
            by_family.setdefault(spec.family, []).append(spec.a)
        assert by_family[UtilityFamily.POWER] == [0.01, 0.1, 0.5, 0.9]
        assert by_family[UtilityFamily.LOG] == [0.9, 1.0]
        assert by_family[UtilityFamily.NEG_EXP] == [0.7, 1, 3, 5, 8, 10, 15, 20]
        assert by_family[UtilityFamily.NEG_POWER] == [0.01, 0.3, 0.5, 1, 3, 5, 8, 10, 15, 20]
