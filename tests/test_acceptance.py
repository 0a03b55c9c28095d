"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).

Criterion 5 checks the skew-normal stress cell against its exact
population ordering (closed-form certainty equivalents) and asks the Monte
Carlo percentages to take the population's side where the gap is not lost
in the per-pair sampling noise; the printed lines carry the population
gaps, the noise scale and the measured percentages.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import norm, skewnorm

from mvlab.distributions import (
    Family,
    MomentTarget,
    NormalParams,
    moments,
    sample,
    solve_params_for_moments,
)
from mvlab.dominance import (
    DiscreteLottery,
    Order,
    Relation,
    ecdf,
    fsd_test,
    mvc_test,
    necessary_screen,
    quadratic_dominance_test,
    ssd_test,
    tsd_test,
)
from mvlab.simulation import (
    default_scenarios,
    run_scenario,
    run_scenarios,
    scenario_config_text,
)
from mvlab.utilities import (
    Expansion,
    UtilityFamily,
    UtilitySpec,
    approx_table,
    expected_quadratic,
    expected_utility,
    table6_panel,
    taylor2,
    utility_derivatives,
    utility_value,
)

from conftest import round_half_away_from_zero

LOG1 = UtilitySpec(UtilityFamily.LOG, 1.0)
SQRT = UtilitySpec(UtilityFamily.POWER, 0.5)
CBRT = UtilitySpec(UtilityFamily.POWER, 1.0 / 3.0)

GRID = [round(-0.6 + 0.1 * i, 10) for i in range(17)]
PRINTED_TABLE = {
    "log:1": (
        [-0.92, -0.69, -0.51, -0.36, -0.22, -0.11, 0.00, 0.10, 0.18, 0.26, 0.34, 0.41, 0.47, 0.53, 0.59, 0.64, 0.69],
        [-0.78, -0.63, -0.48, -0.35, -0.22, -0.11, 0.00, 0.10, 0.18, 0.26, 0.32, 0.38, 0.42, 0.46, 0.48, 0.50, 0.50],
    ),
    "power:0.5": (
        [0.63, 0.71, 0.77, 0.84, 0.89, 0.95, 1.00, 1.05, 1.10, 1.14, 1.18, 1.22, 1.26, 1.30, 1.34, 1.38, 1.41],
        [0.66, 0.72, 0.78, 0.84, 0.90, 0.95, 1.00, 1.05, 1.10, 1.14, 1.18, 1.22, 1.26, 1.29, 1.32, 1.35, 1.38],
    ),
    "power:0.333333": (
        [0.74, 0.79, 0.84, 0.89, 0.93, 0.97, 1.00, 1.03, 1.06, 1.09, 1.12, 1.14, 1.17, 1.19, 1.22, 1.24, 1.26],
        [0.76, 0.81, 0.85, 0.89, 0.93, 0.97, 1.00, 1.03, 1.06, 1.09, 1.12, 1.14, 1.16, 1.18, 1.20, 1.21, 1.22],
    ),
}


@contextmanager
def criterion(number: int, name: str):
    state = {"ok": False}
    start = time.perf_counter()
    try:
        yield state
        state["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if state["ok"] else "FAIL"
        print(f"[criterion {number}] {status} — {name} ({elapsed:.1f}s)")


def _scenario(scenario_id: str):
    by_id = {s.scenario_id: s for s in default_scenarios()}
    return by_id[scenario_id]


def test_criterion_1_worked_example_exactness(table12_lotteries, table3_lotteries):
    with criterion(1, "worked-example exactness"):
        start = time.perf_counter()
        z1, z2 = table12_lotteries
        assert z1.mean() == pytest.approx(8.0, abs=1e-12)
        assert z1.variance() == pytest.approx(6.0, abs=1e-12)
        assert z2.mean() == pytest.approx(16.0, abs=1e-12)
        assert z2.variance() == pytest.approx(24.0, abs=1e-12)
        fsd = fsd_test(ecdf(z1), ecdf(z2))
        assert fsd.relation is Relation.SECOND_DOMINATES and fsd.strict

        f, g = table3_lotteries
        mvc = mvc_test(f.moment_summary(), g.moment_summary())
        assert mvc.relation is Relation.FIRST_DOMINATES and mvc.strict

        # paper's log convention evaluates ln at the raw outcomes
        assert round(expected_utility(f.affine(1, -1), LOG1), 4) == 1.9678
        assert round(expected_utility(g.affine(1, -1), LOG1), 4) == 1.9766
        assert round(expected_utility(f, SQRT), 4) == 3.0731
        assert round(expected_utility(g, SQRT), 4) == 2.9230
        assert time.perf_counter() - start < 1.0


def test_criterion_2_approximation_table():
    with criterion(2, "quadratic approximation table (17 x 3)"):
        start = time.perf_counter()
        for spec in (LOG1, SQRT, CBRT):
            printed_u, printed_q = PRINTED_TABLE[spec.identifier]
            rows = approx_table(spec, GRID)
            for (z, u, q), pu, pq in zip(rows, printed_u, printed_q):
                assert round_half_away_from_zero(u) == pytest.approx(pu, abs=1e-12)
                assert round_half_away_from_zero(q) == pytest.approx(pq, abs=1e-12)
                assert abs(u - pu) <= 0.005 + 1e-9
                assert abs(q - pq) <= 0.005 + 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_3_dominance_property_suite(lottery_corpus):
    with criterion(3, "dominance property suite (500 pairs)"):
        start = time.perf_counter()
        panel = table6_panel()
        rank = {
            Relation.FIRST_DOMINATES: "F",
            Relation.SECOND_DOMINATES: "S",
            Relation.INDISTINGUISHABLE: "E",
            Relation.NO_DOMINANCE: "N",
        }
        ssd_dominant = 0
        for first, second in lottery_corpus:
            f, g = ecdf(first), ecdf(second)
            verdicts = [fsd_test(f, g), ssd_test(f, g), tsd_test(f, g)]
            chain = [rank[v.relation] for v in verdicts]
            # implication chain: a verdict at one order persists upward
            for low, high in zip(chain, chain[1:]):
                if low in "FSE":
                    assert high == low, f"chain broken: {chain}"

            if verdicts[1].relation is Relation.FIRST_DOMINATES:
                ssd_dominant += 1
                lo = min(first.min_value(), second.min_value())
                hi = max(first.max_value(), second.max_value())
                span = hi - lo if hi > lo else 1.0
                mf = first.affine(1.0 / span, -lo / span - 0.5)
                mg = second.affine(1.0 / span, -lo / span - 0.5)
                for spec in panel:
                    assert expected_utility(mf, spec) >= expected_utility(mg, spec) - 1e-12

            # quadratic rule vs the exact bliss-point utility oracle
            k = max(first.max_value(), second.max_value())
            eu = lambda lot: float(np.sum(lot.probs * (2 * k * lot.values - lot.values**2)))
            delta = eu(first) - eu(second)
            quad = quadratic_dominance_test(f, g)
            if quad.relation is Relation.FIRST_DOMINATES:
                assert delta >= -1e-9
            elif quad.relation is Relation.SECOND_DOMINATES:
                assert delta <= 1e-9

            # screens never contradict the full tests
            for order, rule in ((Order.FIRST, fsd_test), (Order.SECOND, ssd_test), (Order.THIRD, tsd_test)):
                if necessary_screen(f, g, order):
                    assert rule(f, g).relation is not Relation.FIRST_DOMINATES
                if necessary_screen(g, f, order):
                    assert rule(f, g).relation is not Relation.SECOND_DOMINATES
        assert ssd_dominant >= 50
        assert time.perf_counter() - start < 30.0


def test_criterion_4_symmetric_families():
    with criterion(4, "Normal/Laplace cells all >= 99.5%"):
        start = time.perf_counter()
        panel = table6_panel()
        failures = []
        for scenario_id in ("normal_1.05", "normal_1.01", "laplace_1.05", "laplace_1.01"):
            report = run_scenario(_scenario(scenario_id), panel)
            for uid, pct in report.success_pct.items():
                if pct < 99.5:
                    failures.append(f"{scenario_id}/{uid}: {pct:.2f}%")
        assert not failures, f"cells below 99.5%: {failures}"
        assert time.perf_counter() - start < 120.0


def _point(interval) -> float:
    lo, hi = interval
    assert lo == hi, f"expected a point ratio, got the interval {interval}"
    return lo


def _skew_normal_cell_targets(spec):
    """The cell's two population targets, laid out as ``ScenarioSpec``
    documents them: lottery 1 takes the base mean times the mean ratio,
    the base std over the std ratio and the base skewness; lottery 2 takes
    the base mean and std and the base skewness times the skew ratio."""
    base = spec.base
    first = MomentTarget(
        base.mean * _point(spec.mean_ratio), base.std / _point(spec.std_ratio), base.skewness
    )
    second = MomentTarget(base.mean, base.std, base.skewness * _point(spec.skew_ratio))
    return first, second


def _skew_normal_certainty_equivalent(params, spec: UtilitySpec) -> float:
    """Population certainty equivalent, in z, of a skew-normal lottery.

    neg_exp is closed form from the skew-normal moment-generating function
    E[exp(tZ)] = 2 exp(xi t + omega^2 t^2 / 2) Phi(delta omega t)
    (Azzalini 1985); neg_power is quadrature against scipy's skewnorm.
    """
    a = spec.a
    if spec.family is UtilityFamily.NEG_EXP:
        delta = params.shape / math.sqrt(1.0 + params.shape**2)
        tail = 2.0 * norm.cdf(-a * delta * params.omega)
        return params.xi - a * params.omega**2 / 2.0 - math.log(tail) / a
    assert spec.family is UtilityFamily.NEG_POWER
    dist = skewnorm(params.shape, params.xi, params.omega)
    lo, hi = dist.ppf(1e-15), dist.isf(1e-15)
    mean_u = dist.expect(lambda z: (1.0 + z) ** -a, lb=lo, ub=hi, epsabs=0.0, epsrel=1e-12)
    return mean_u ** (-1.0 / a) - 1.0


def test_criterion_5_skew_normal_stress_cell():
    with criterion(5, "skew-normal stress cell bands"):
        sweep = [UtilitySpec(UtilityFamily.NEG_EXP, a) for a in (0.7, 1, 3, 5, 8, 10, 15, 20)]
        utilities = sweep + [UtilitySpec(UtilityFamily.NEG_POWER, 20)]
        spec = _scenario("skew_normal_1.01_s3")

        # Population part: the exact ordering the bands express.  The MV
        # winner has the higher expected utility while the certainty
        # equivalent gap CE_1 - CE_2 is positive.
        targets = _skew_normal_cell_targets(spec)
        params = [solve_params_for_moments(Family.SKEW_NORMAL, t) for t in targets]
        for target, p in zip(targets, params):
            mean, var, skew = skewnorm(p.shape, p.xi, p.omega).stats("mvs")
            got = (float(mean), math.sqrt(float(var)), float(skew))
            want = (target.mean, target.std, target.skewness)
            assert got == pytest.approx(want, rel=1e-9), (
                f"population: skewnorm moments {got} do not reproduce the target {want}"
            )
        gaps = {
            u.identifier: _skew_normal_certainty_equivalent(params[0], u)
            - _skew_normal_certainty_equivalent(params[1], u)
            for u in utilities
        }
        # sd of the per-pair sample-mean gap: each lottery's sample mean
        # scatters around its target with std/sqrt(n_obs).
        noise = spec.base.std * math.sqrt((1.0 + _point(spec.std_ratio) ** -2) / spec.n_obs)
        print("    population CE gaps:", ", ".join(f"{k} {v:+.3g}" for k, v in gaps.items()))
        print(f"    per-pair sample-mean gap sd s = {noise:.3g}")
        for u in sweep:
            if u.a <= 10:
                assert gaps[u.identifier] > 0.0, (
                    f"population ordering: {u.identifier} gap {gaps[u.identifier]:+.3g} "
                    "should be > 0 (MVC agrees with EU for a <= 10)"
                )
        for uid in ("neg_exp:20", "neg_power:20"):
            assert gaps[uid] < 0.0, (
                f"population ordering: {uid} gap {gaps[uid]:+.3g} should be < 0 "
                "(MVC disagrees with EU for strong risk aversion)"
            )

        # Monte Carlo part, on the percentages the CLI reports.
        pct = run_scenario(spec, utilities).success_pct
        print("    measured:", {k: round(v, 1) for k, v in pct.items()})
        failures = []
        values = [pct[u.identifier] for u in sweep]
        for prev, nxt in zip(values, values[1:]):
            if nxt > prev + 5.0:
                failures.append(f"monotone: not monotone within 5 points: {values}")
                break
        for uid, gap in gaps.items():
            if gap > 0.0 and pct[uid] < 50.0:
                failures.append(
                    f"majority: {uid} = {pct[uid]:.1f}% < 50% with population gap {gap:+.3g} > 0"
                )
            elif gap <= -noise and pct[uid] > 50.0:
                failures.append(
                    f"majority: {uid} = {pct[uid]:.1f}% > 50% with population gap "
                    f"{gap:+.3g} <= -s = {-noise:.3g}"
                )
        assert not failures, f"Monte Carlo sub-checks failed: {failures}"


def test_criterion_6_extreme_value_stress_cell():
    with criterion(6, "extreme-value stress cell bands"):
        utilities = [
            UtilitySpec(UtilityFamily.NEG_EXP, 0.7),
            UtilitySpec(UtilityFamily.NEG_EXP, 3),
            UtilitySpec(UtilityFamily.POWER, 0.01),
        ]
        report = run_scenario(_scenario("gev_1.01_s3"), utilities)
        pct = report.success_pct
        print("    measured:", {k: round(v, 1) for k, v in pct.items()})
        assert pct["neg_exp:3"] <= 15.0
        assert pct["neg_exp:0.7"] >= 80.0
        assert 65.0 <= pct["power:0.01"] <= 95.0


def test_criterion_7_stable_band_ordering():
    with criterion(7, "stable-Pareto band ordering for log(a=1)"):
        cells = [_scenario(i) for i in ("stable_tight", "stable_mid", "stable_wide")]
        results = {
            report.spec.scenario_id: report.success_pct["log:1"]
            for report in run_scenarios(cells, [LOG1], workers=2)
        }
        print("    measured:", {k: round(v, 1) for k, v in results.items()})
        assert results["stable_tight"] < results["stable_mid"] < results["stable_wide"]
        assert 45.0 <= results["stable_tight"] <= 85.0


def test_criterion_8_numerical_kernels():
    with criterion(8, "numerical kernels (derivatives, E[Q], solver round-trips)"):
        h = 1e-5
        for spec in table6_panel():
            lo = spec.domain_min
            start_z = -2.0 if lo == float("-inf") else lo + 0.12
            z = np.linspace(start_z, start_z + 3.0, 100)
            u1, u2, u3 = utility_derivatives(spec, z)
            fd1 = (utility_value(spec, z + h) - utility_value(spec, z - h)) / (2 * h)
            dp, dm = utility_derivatives(spec, z + h), utility_derivatives(spec, z - h)
            assert np.all(np.abs(fd1 - u1) <= 1e-6 * np.abs(u1))
            assert np.all(np.abs((dp[0] - dm[0]) / (2 * h) - u2) <= 1e-6 * np.abs(u2))
            assert np.all(np.abs((dp[1] - dm[1]) / (2 * h) - u3) <= 1e-6 * np.abs(u3))

        # closed-form E[Q] vs the Monte Carlo average of Q over 1e6 draws
        draws = sample(NormalParams(0.01, 0.08), 10**6, seed=2024)
        for spec, mode in ((LOG1, Expansion.AROUND_ZERO), (SQRT, Expansion.AROUND_MEAN)):
            center = 0.0 if mode is Expansion.AROUND_ZERO else float(np.mean(draws))
            q = taylor2(spec, center)
            qs = q(draws)
            mc, se = float(np.mean(qs)), float(np.std(qs)) / 1000.0
            m = moments(draws)
            closed = expected_quadratic(spec, m.mean, m.std**2, mode)
            assert abs(closed - mc) <= 3 * se

        # solver round-trips at n = 1e6
        for family, skew in ((Family.SKEW_NORMAL, 0.5), (Family.GEV, 0.5)):
            params = solve_params_for_moments(family, MomentTarget(0.01, 0.08, skew))
            m = moments(sample(params, 10**6, seed=4242))
            assert abs(m.mean - 0.01) <= 0.002
            assert abs(m.std - 0.08) <= 0.01 * 0.08
            assert abs(m.skewness - skew) <= 0.05


def test_criterion_9_simulate_determinism(tmp_path):
    with criterion(9, "simulate reports byte-identical across runs and workers"):
        from mvlab.cli import main

        scenarios = [
            s for s in default_scenarios() if s.scenario_id in ("normal_1.05", "skew_normal_1.05_s1.5")
        ]
        small = [
            type(s)(**{**s.__dict__, "n_obs": 2000, "n_pairs": 3}) for s in scenarios
        ]
        config = tmp_path / "grid.ini"
        config.write_text(scenario_config_text(small))
        out = tmp_path / "report.csv"
        contents = []
        for workers in ("1", "1", "2"):
            code = main(["simulate", str(config), "--out", str(out), "--workers", workers])
            assert code == 0
            lines = out.read_text().splitlines()
            contents.append("\n".join(l for l in lines if not l.startswith("# timestamp")))
        assert contents[0] == contents[1] == contents[2]
