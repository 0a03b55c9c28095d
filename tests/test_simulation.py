import contextlib
import math
import types
from collections import Counter
from functools import partial

import numpy as np
import pytest

from mvlab import simulation
from mvlab.distributions import (
    Family,
    MomentTarget,
    NormalParams,
    StableParams,
    moments,
    sample,
    sample_with_rng,
)
from mvlab.dominance import satisfies_mv
from mvlab.errors import (
    DomainError,
    GenerationError,
    InfeasibleTargetError,
    ParameterError,
    UsageError,
)
from mvlab.simulation import (
    _STREAM_PARAMS,
    _STREAM_Z1,
    _STREAM_Z2,
    DEFAULT_MASTER_SEED,
    STABLE_SKEW_1_WINDOW,
    STABLE_SKEW_2_WINDOW,
    STABLE_STABILITY_WINDOW,
    ScenarioSpec,
    _draw,
    _solvable_targets,
    correlation_study,
    default_scenarios,
    evaluate_pair,
    generate_mv_pair,
    load_scenario_config,
    pair_results,
    run_scenario,
    run_scenarios,
    scenario_config_text,
)
from mvlab.rng import spawn_rng
from mvlab.utilities import (
    Expansion,
    UtilityFamily,
    UtilitySpec,
    panel_expected_utility,
    table6_panel,
)


def _spec(**overrides):
    base = dict(
        scenario_id="test",
        family=Family.NORMAL,
        mean_ratio=1.05,
        std_ratio=1.05,
        base=MomentTarget(0.01, 0.008),
        n_obs=2000,
        n_pairs=4,
        master_seed=77,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _streams(spec, pair_index, attempt):
    """The three generators ``_accepted_pair`` derives for one attempt."""
    return [
        spawn_rng(spec.master_seed, stream, pair_index, attempt)
        for stream in (_STREAM_PARAMS, _STREAM_Z1, _STREAM_Z2)
    ]


_STABLE_CELL = dict(mean_ratio=(1.01, 1.1), std_ratio=(1.01, 1.1),
                    base=MomentTarget(0.01, 0.03, 0.2))

LOG1 = UtilitySpec(UtilityFamily.LOG, 1.0)
SQRT = UtilitySpec(UtilityFamily.POWER, 0.5)
NEG_EXP10 = UtilitySpec(UtilityFamily.NEG_EXP, 10.0)


class TestScenarioSpec:
    def test_ratio_below_one_rejected(self):
        with pytest.raises(ParameterError):
            _spec(mean_ratio=0.99)
        with pytest.raises(ParameterError):
            _spec(std_ratio=(0.5, 1.2))

    def test_minimum_observations(self):
        with pytest.raises(ParameterError):
            _spec(n_obs=999)

    def test_skew_scenarios_need_base_skewness(self):
        with pytest.raises(ParameterError):
            _spec(family=Family.SKEW_NORMAL, skew_ratio=3.0,
                  base=MomentTarget(0.01, 0.02))

    def test_gev_cells_need_base_skewness(self):
        # GEV solves its shape from a skewness even when no ratio scales it
        with pytest.raises(ParameterError, match="gev scenarios need a base skewness"):
            _spec(family=Family.GEV)

    def test_interval_normalization(self):
        spec = _spec(mean_ratio=(1.01, 1.1))
        assert spec.mean_ratio == (1.01, 1.1)
        assert spec.std_ratio == (1.05, 1.05)

    @pytest.mark.parametrize("family", [Family.NORMAL, Family.LAPLACE])
    @pytest.mark.parametrize(
        "skew", [dict(skew_ratio=1.5), dict(base=MomentTarget(0.01, 0.008, 0.2))],
        ids=["skew_ratio", "base_skew"],
    )
    def test_symmetric_cells_take_no_skew(self, family, skew):
        with pytest.raises(ParameterError, match="symmetric"):
            _spec(family=family, **skew)

    @pytest.mark.parametrize(
        "cell, error, message",
        [
            # the target skewness 3 * 0.5 is past the skew-normal's cap
            (dict(family=Family.SKEW_NORMAL, skew_ratio=3.0, base=MomentTarget(0.01, 0.008, 0.5)),
             InfeasibleTargetError, "skew-normal skewness magnitude must be < 0.99527, got 1.5"),
            # feasible at the interval's lower end, not at its upper one
            (dict(family=Family.SKEW_NORMAL, skew_ratio=(1.5, 3.0),
                  base=MomentTarget(0.01, 0.008, 0.5)),
             InfeasibleTargetError, "skew-normal skewness magnitude must be < 0.99527, got 1.5"),
            (dict(family=Family.GEV, skew_ratio=1.1, base=MomentTarget(0.01, 0.008, -0.16)),
             InfeasibleTargetError,
             "gev target skewness -0.17600000000000002 outside solvable range "
             "(-0.168103, 428903906.822987) for shape in (-1/3, 1/3)"),
            (dict(mean_ratio=(1.0, 1e308), base=MomentTarget(2.0, 0.008)),
             ParameterError, "target mean must be finite, got inf"),
        ],
        ids=["skew_normal", "skew_normal_upper_end", "gev", "mean_overflow"],
    )
    def test_unsolvable_cell_fails_when_built(self, cell, error, message):
        # the config loader prints these same messages
        with pytest.raises(error) as info:
            _spec(**cell)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "name, value",
        [("master_seed", 5.7), ("master_seed", "5"), ("n_obs", 2000.5), ("n_pairs", 2.5),
         ("master_seed", np.float64(5.0))],
    )
    def test_seed_and_sizes_must_be_integers(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be an integer"):
            _spec(**{name: value})

    def test_numpy_integers_run_as_python_ints(self):
        spec = _spec(master_seed=np.uint64(77), n_obs=np.int32(2000), n_pairs=np.int64(4))
        assert all(type(v) is int for v in (spec.master_seed, spec.n_obs, spec.n_pairs))
        assert spec == _spec()
        got, want = generate_mv_pair(spec, 1), generate_mv_pair(_spec(), 1)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestTargets:
    def test_point_ratio_arithmetic(self):
        spec = _spec(family=Family.NORMAL, mean_ratio=1.05, std_ratio=1.05,
                     base=MomentTarget(0.01, 0.08))
        rng = spawn_rng(1)
        t1, t2 = _solvable_targets(spec, partial(_draw, rng=rng))
        assert t1.mean == pytest.approx(0.0105)
        assert t1.std == pytest.approx(0.08 / 1.05)  # ~0.07619
        assert (t2.mean, t2.std) == (0.01, 0.08)

    def test_skew_anchors_lottery_one(self):
        spec = _spec(family=Family.SKEW_NORMAL, skew_ratio=3.0,
                     base=MomentTarget(0.01, 0.08, 0.2))
        t1, t2 = _solvable_targets(spec, partial(_draw, rng=spawn_rng(1)))
        assert t1.skewness == pytest.approx(0.2)
        assert t2.skewness == pytest.approx(0.6)
        # both inside the skew-normal feasibility cap
        assert abs(t2.skewness) < 0.99527

    @pytest.mark.parametrize("family", [Family.NORMAL, Family.LAPLACE])
    def test_symmetric_targets_carry_no_skew(self, family):
        t1, t2 = _solvable_targets(_spec(family=family), partial(_draw, rng=spawn_rng(1)))
        assert t1.skewness is None and t2.skewness is None

    @pytest.mark.parametrize("family", [Family.SKEW_NORMAL, Family.GEV])
    def test_base_skew_without_ratio_on_both(self, family):
        spec = _spec(family=family, base=MomentTarget(0.01, 0.08, 0.2))
        t1, t2 = _solvable_targets(spec, partial(_draw, rng=spawn_rng(1)))
        assert t1.skewness == t2.skewness == 0.2

    def test_interval_skew_ratio_scales_lottery_two(self):
        spec = _spec(family=Family.SKEW_NORMAL, skew_ratio=(1.5, 3.0),
                     base=MomentTarget(0.01, 0.08, 0.2))
        ratios = set()
        for seed in range(20):
            t1, t2 = _solvable_targets(spec, partial(_draw, rng=spawn_rng(seed)))
            assert t1.skewness == 0.2
            assert 1.5 <= t2.skewness / 0.2 <= 3.0
            ratios.add(t2.skewness)
        assert len(ratios) == 20


class TestGenerateMvPair:
    def test_determinism(self):
        spec = _spec()
        a1, a2 = generate_mv_pair(spec, 3)
        b1, b2 = generate_mv_pair(spec, 3)
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)

    def test_distinct_pairs_differ(self):
        spec = _spec()
        a1, _ = generate_mv_pair(spec, 0)
        b1, _ = generate_mv_pair(spec, 1)
        assert not np.array_equal(a1, b1)

    def test_mv_ordering_enforced(self):
        spec = _spec(mean_ratio=1.01, std_ratio=1.01, n_obs=1000)
        for idx in range(6):
            z1, z2 = generate_mv_pair(spec, idx)
            m1, m2 = moments(z1), moments(z2)
            assert m1.mean >= m2.mean
            assert m1.std <= m2.std

    def test_stable_pair_respects_bands(self):
        spec = _spec(
            family=Family.STABLE,
            mean_ratio=(1.3, 1.5),
            std_ratio=(1.3, 1.5),
            skew_ratio=(1.5, 3.0),
            base=MomentTarget(0.01, 0.03, 0.2),
            n_obs=2000,
        )
        z1, z2 = generate_mv_pair(spec, 0)
        m1, m2 = moments(z1), moments(z2)
        assert m1.mean >= m2.mean and m1.std <= m2.std
        assert 1.3 <= m1.mean / m2.mean <= 1.5
        assert 1.3 <= m2.std / m1.std <= 1.5
        assert 1.5 <= m2.skewness / m1.skewness <= 3.0


class TestEvaluatePair:
    def test_identical_samples_agree_everywhere(self):
        x = sample(NormalParams(0.01, 0.01), 2000, seed=5)
        agreement = evaluate_pair((x, x.copy()), [LOG1, SQRT])
        assert all(agreement.values())

    def test_table3_degenerate_pair(self, table3_lotteries):
        f, g = table3_lotteries
        # expand the lotteries into weight-proportional samples
        z1 = np.repeat(f.values, (np.array([0.8, 0.2]) * 100).astype(int))
        z2 = np.repeat(g.values, (np.array([0.99, 0.01]) * 100).astype(int))
        assert evaluate_pair((z1 - 1.0, z2 - 1.0), [LOG1])["log:1"] is False
        assert evaluate_pair((z1, z2), [SQRT])["power:0.5"] is True

    def test_keys_are_panel_identifiers_in_panel_order(self):
        panel = table6_panel()[::-1]
        x = sample(NormalParams(0.01, 0.01), 2000, seed=5)
        agreement = evaluate_pair((x, x.copy()), panel)
        assert list(agreement) == [u.identifier for u in panel]

    def test_mv_precondition_enforced(self):
        z1 = np.array([0.0, 1.0, 2.0])
        z2 = z1 + 1.0  # higher mean for the second lottery
        with pytest.raises(ParameterError):
            evaluate_pair((z1, z2), [LOG1])


class TestRunScenario:
    def test_reproducible_and_worker_invariant(self):
        spec = _spec(n_pairs=6)
        a = run_scenario(spec, [LOG1, SQRT], workers=1)
        b = run_scenario(spec, [LOG1, SQRT], workers=1)
        c = run_scenario(spec, [LOG1, SQRT], workers=2)
        assert a.success_pct == b.success_pct == c.success_pct
        assert a.n_regenerations == b.n_regenerations == c.n_regenerations

    def test_normal_cell_full_agreement(self):
        spec = _spec(n_obs=20000, n_pairs=10)
        report = run_scenario(spec, [LOG1, SQRT])
        assert report.success_pct == {"log:1": 100.0, "power:0.5": 100.0}
        assert report.n_pairs_run == 10

    def test_normal_pair_at_full_scale_agrees_across_panel(self):
        # 1.05/1.05 normal pair at 100k observations: the whole utility
        # panel sides with the MV-dominant lottery
        spec = _spec(
            mean_ratio=1.05, std_ratio=1.05,
            base=MomentTarget(0.01, 0.08), n_obs=100_000, n_pairs=1,
        )
        pair = generate_mv_pair(spec, 0)
        agreement = evaluate_pair(pair, table6_panel())
        assert all(agreement.values())

    def test_requires_utilities(self):
        with pytest.raises(ParameterError):
            run_scenario(_spec(), [])

    def test_percentages_count_pairs(self):
        spec = _spec(n_pairs=8)
        report = run_scenario(spec, [LOG1])
        assert report.success_pct["log:1"] * 8 / 100 == int(
            report.success_pct["log:1"] * 8 / 100
        )


class TestAttemptLoop:
    @pytest.mark.parametrize(
        "base, utilities",
        [
            # lottery 1's mean is scaled further below zero: every attempt misses MV
            (MomentTarget(-0.5, 0.001), [SQRT]),
            # about 2% of the draws sit below log:1's domain edge: every
            # attempt breaches the clamping budget
            (MomentTarget(0.01, 0.5), [LOG1]),
        ],
        ids=["mv_miss", "clamp_breach"],
    )
    def test_cap_raises_after_exactly_cap_attempts(self, monkeypatch, base, utilities):
        monkeypatch.setattr(simulation, "SOLVABLE_ATTEMPT_CAP", 3)
        draws = []
        sampler = simulation.sample_with_rng

        def counting_sampler(params, n, rng):
            draws.append(n)
            return sampler(params, n, rng)

        monkeypatch.setattr(simulation, "sample_with_rng", counting_sampler)
        with pytest.raises(GenerationError, match="3-attempt"):
            run_scenario(_spec(base=base, n_obs=1000, n_pairs=2), utilities)
        assert len(draws) == 2 * 3  # pair 0 only: two lotteries per attempt

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(mean_ratio=1.01, std_ratio=1.01, n_pairs=6),
            dict(
                family=Family.STABLE,
                mean_ratio=(1.01, 1.1),
                std_ratio=(1.01, 1.1),
                skew_ratio=(1.5, 3.0),
                base=MomentTarget(0.01, 0.03, 0.2),
                n_pairs=6,
            ),
        ],
        ids=["normal", "stable"],
    )
    def test_success_matches_public_recount(self, overrides):
        # neither cell breaches a clamping budget, so each pair run_scenario
        # scores is the pair generate_mv_pair returns
        spec = _spec(**overrides)
        utilities = [LOG1, SQRT, NEG_EXP10]
        report = run_scenario(spec, utilities)
        counts = dict.fromkeys((u.identifier for u in utilities), 0)
        for idx in range(spec.n_pairs):
            agreement = evaluate_pair(generate_mv_pair(spec, idx), utilities, idx)
            for uid, agreed in agreement.items():
                counts[uid] += agreed
        recount = {uid: 100.0 * n / spec.n_pairs for uid, n in counts.items()}
        assert report.success_pct == recount

    @pytest.mark.parametrize(
        "overrides, reasons",
        [
            (dict(), {"ParameterError"}),
            (dict(family=Family.LAPLACE), {"ParameterError"}),
            (
                dict(family=Family.SKEW_NORMAL, skew_ratio=1.5,
                     base=MomentTarget(0.01, 0.0235, 0.33)),
                {"ParameterError"},
            ),
            (
                dict(family=Family.GEV, skew_ratio=3.0, base=MomentTarget(0.01, 0.16, 0.35)),
                {"ParameterError"},
            ),
            (dict(family=Family.STABLE, skew_ratio=(1.5, 3.0), **_STABLE_CELL), set()),
            (dict(family=Family.STABLE, **_STABLE_CELL), set()),
            # a draw at or below log:1's edge breaches the budget at 1,000 draws
            (dict(base=MomentTarget(0.01, 0.3)), {"ParameterError", "DomainError"}),
        ],
        ids=["normal", "laplace", "skew_normal", "gev", "stable_banded",
             "stable_unbanded", "clamp_breach"],
    )
    def test_matches_inline_judging(self, monkeypatch, overrides, reasons):
        # every attempt is judged by the module's evaluate_pair, and the
        # accepted pair, its agreement and its attempt index are the ones
        # the loop found when it judged attempts inline
        spec = _spec(**{"mean_ratio": 1.01, "std_ratio": 1.01, "n_obs": 1000, **overrides})
        utilities = [LOG1, SQRT, NEG_EXP10]
        raised = Counter()
        evaluate = simulation.evaluate_pair

        def recording_evaluate(pair, utilities, pair_index):
            try:
                return evaluate(pair, utilities, pair_index)
            except (ParameterError, DomainError) as exc:
                raised[type(exc).__name__] += 1
                raise

        monkeypatch.setattr(simulation, "evaluate_pair", recording_evaluate)
        for pair_index in range(spec.n_pairs):
            got = simulation._accepted_pair(spec, utilities, pair_index)
            want = _accepted_pair_inline(spec, utilities, pair_index)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2:] == want[2:]
        assert set(raised) == reasons

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        created = _recording_pool(monkeypatch, cpu_count=3)
        spec = _spec(n_pairs=3)
        serial = run_scenario(spec, [LOG1], workers=1)
        capped = run_scenario(spec, [LOG1], workers=64)
        assert created == [3]
        assert capped.success_pct == serial.success_pct
        assert capped.n_regenerations == serial.n_regenerations

    @pytest.mark.parametrize(
        "n_pairs, pool_size",
        [((2, 3, 4), 3), ((1, 1), 2)],
        ids=["capped_at_cpu_count", "capped_at_total_pairs"],
    )
    def test_one_pool_per_run(self, monkeypatch, n_pairs, pool_size):
        created = _recording_pool(monkeypatch, cpu_count=3)
        specs = [
            _spec(scenario_id=f"cell{k}", n_pairs=n, master_seed=77 + k)
            for k, n in enumerate(n_pairs)
        ]
        serial = list(run_scenarios(specs, [LOG1, SQRT], workers=1))
        assert created == []
        pooled = list(run_scenarios(specs, [LOG1, SQRT], workers=64))
        assert created == [pool_size]
        assert [r.spec for r in pooled] == specs
        assert [r.success_pct for r in pooled] == [r.success_pct for r in serial]
        assert [r.n_regenerations for r in pooled] == [r.n_regenerations for r in serial]
        assert [r.n_pairs_run for r in pooled] == list(n_pairs)

    def test_pool_workers_start_with_the_allocator_setting(self, monkeypatch):
        _recording_pool(monkeypatch, cpu_count=2)
        list(run_scenarios([_spec(n_pairs=2)], [LOG1], workers=2))
        assert simulation.ProcessPoolExecutor.initializers == [simulation.keep_freed_memory]

    def test_serial_run_leaves_the_allocator_alone(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simulation, "keep_freed_memory", lambda: calls.append(1))
        list(run_scenarios([_spec(n_pairs=2)], [LOG1], workers=1))
        assert calls == []

    def test_empty_panel_rejected_before_iteration(self):
        with pytest.raises(ParameterError, match="at least one utility"):
            run_scenarios([_spec(n_pairs=1)], [])
        with pytest.raises(ParameterError, match="at least one utility"):
            run_scenario(_spec(n_pairs=1), [])

    def test_leaving_the_pool_cancels_queued_pairs(self, tmp_path, monkeypatch):
        # the workers are forked, so each attempt appends to a file
        marker = tmp_path / "attempts.log"
        attempt_solvable = simulation._attempt_solvable

        def marked_attempt(spec, params_rng, *rngs):
            pair_index = params_rng.bit_generator.seed_seq.entropy[2]  # (seed, stream, pair, attempt)
            with open(marker, "a", encoding="utf-8") as handle:
                handle.write(f"{spec.scenario_id} {pair_index}\n")
            return attempt_solvable(spec, params_rng, *rngs)

        monkeypatch.setattr(simulation, "_attempt_solvable", marked_attempt)
        specs = [
            _spec(scenario_id=f"cell{k}", n_obs=100_000, n_pairs=10, master_seed=77 + k)
            for k in range(3)
        ]
        with pytest.raises(RuntimeError, match="reader stopped"):
            with pair_results(specs, [LOG1], workers=2) as results:
                next(results)
                raise RuntimeError("reader stopped")
        # only the pairs already running or handed to a worker may finish:
        # 5 to 8 of the 30 on two workers, all 30 without the cancel
        assert len(set(marker.read_text().splitlines())) < 15


def _recording_pool(monkeypatch, cpu_count):
    """Patch in a ProcessPoolExecutor stand-in that runs the tasks
    in-process and records each pool's size, which it returns, and its
    worker initializer, in ``simulation.ProcessPoolExecutor.initializers``
    (never called: it would act on this process)."""
    created = []

    class RecordingPool:
        initializers = []

        def __init__(self, max_workers, initializer=None):
            created.append(max_workers)
            self.initializers.append(initializer)

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpu_count)
    return created


class TestKeepFreedMemory:
    def test_raises_the_mmap_then_the_trim_threshold(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        libc = types.SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(simulation.ctypes, "CDLL", lambda name: libc)
        simulation.keep_freed_memory()
        assert calls == [(-3, 32 * 2**20), (-1, 256 * 2**20)]

    def test_no_op_without_mallopt(self, monkeypatch):
        # musl and macOS: the C library has no mallopt
        monkeypatch.setattr(simulation.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        assert simulation.keep_freed_memory() is None


def _attempt_stable_two_draws(spec, params_rng, z1_rng, z2_rng):
    # _attempt_stable's construction without its early exit: both noise
    # samples are drawn before either skewness is checked, and Z1 and Z2
    # are built out of place
    r_mean = _draw(spec.mean_ratio, params_rng)
    r_std = _draw(spec.std_ratio, params_rng)
    stability = float(params_rng.uniform(*STABLE_STABILITY_WINDOW))
    beta_1 = float(params_rng.uniform(*STABLE_SKEW_1_WINDOW))
    beta_2 = float(params_rng.uniform(*STABLE_SKEW_2_WINDOW))
    noise_1 = sample_with_rng(StableParams(stability, beta_1, 1.0, 0.0), spec.n_obs, z1_rng)
    noise_2 = sample_with_rng(StableParams(stability, beta_2, 1.0, 0.0), spec.n_obs, z2_rng)
    noise_m1, noise_m2 = moments(noise_1), moments(noise_2)
    if spec.skew_ratio is not None:
        skew_1, skew_2 = noise_m1.skewness, noise_m2.skewness
        if skew_1 <= 0.0 or skew_2 <= 0.0:
            return None
        lo, hi = spec.skew_ratio
        if not lo <= skew_2 / skew_1 <= hi:
            return None
    scale_2 = spec.base.std / math.sqrt(2.0)
    mean_2 = spec.base.mean + scale_2 * noise_m2.mean
    std_2 = scale_2 * noise_m2.std
    if mean_2 <= 0.0 or std_2 == 0.0 or noise_m1.std == 0.0:
        return None
    scale_1 = std_2 / (r_std * noise_m1.std)
    location_1 = r_mean * mean_2 - scale_1 * noise_m1.mean
    return location_1 + scale_1 * noise_1, spec.base.mean + scale_2 * noise_2


def _with_moments(attempt_pair):
    """An attempt as it was when the loop judged it inline: the candidate
    followed by the sample moments of z1 and of z2."""

    def attempt(spec, pair_index, attempt):
        candidate = attempt_pair(spec, *_streams(spec, pair_index, attempt))
        if candidate is None:
            return None
        z1, z2 = candidate
        return z1, z2, moments(z1), moments(z2)

    return attempt


def _agreement_inline(z1, z2, utilities):
    # verbatim copy of the former simulation._agreement
    eu1 = panel_expected_utility(z1, utilities)
    eu2 = panel_expected_utility(z2, utilities)
    return {
        utility.identifier: bool(u1 >= u2)
        for utility, (u1, _), (u2, _) in zip(utilities, eu1, eu2)
    }


def _accepted_pair_inline(spec, utilities, pair_index):
    # verbatim copy of _accepted_pair when it judged each attempt inline
    stable = spec.family is Family.STABLE
    attempt_pair = _with_moments(
        simulation._attempt_stable if stable else simulation._attempt_solvable
    )
    cap = simulation.STABLE_ATTEMPT_CAP if stable else simulation.SOLVABLE_ATTEMPT_CAP
    for attempt in range(cap):
        candidate = attempt_pair(spec, pair_index, attempt)
        if candidate is None:
            continue
        z1, z2, m1, m2 = candidate
        if not satisfies_mv(m1, m2):
            continue
        try:
            agreement = _agreement_inline(z1, z2, utilities)
        except DomainError:
            continue
        return z1, z2, agreement, attempt
    raise GenerationError(
        f"scenario {spec.scenario_id!r}: pair {pair_index} exceeded the "
        f"{cap}-attempt generation cap"
    )


class TestAttemptStableEarlyExit:
    @pytest.mark.parametrize("skew_ratio", [(1.5, 3.0), None], ids=["banded", "unbanded"])
    def test_matches_two_draw_attempt(self, skew_ratio):
        spec = _spec(
            family=Family.STABLE, mean_ratio=(1.01, 1.1), std_ratio=(1.01, 1.1),
            skew_ratio=skew_ratio, base=MomentTarget(0.01, 0.03, 0.2), n_obs=1000,
        )
        rejected = 0
        for pair_index in range(12):
            for attempt in range(12):
                got = simulation._attempt_stable(spec, *_streams(spec, pair_index, attempt))
                want = _attempt_stable_two_draws(spec, *_streams(spec, pair_index, attempt))
                assert (got is None) == (want is None)
                if got is None:
                    rejected += 1
                    continue
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert 0 < rejected < 144 if skew_ratio else rejected == 0

    def test_z2_not_drawn_after_nonpositive_skew(self, monkeypatch):
        spec = _spec(
            family=Family.STABLE, mean_ratio=1.05, std_ratio=1.05, skew_ratio=(1.5, 3.0),
            base=MomentTarget(0.01, 0.03, 0.2), n_obs=1000,
        )
        draws = []
        sampler = simulation.sample_with_rng

        def recording_sampler(params, n, rng):
            draws.append(sampler(params, n, rng))
            return draws[-1].copy()  # the attempt scales its draws in place

        monkeypatch.setattr(simulation, "sample_with_rng", recording_sampler)
        early = 0
        for pair_index in range(4):
            for attempt in range(50):
                draws.clear()
                simulation._attempt_stable(spec, *_streams(spec, pair_index, attempt))
                assert len(draws) == (1 if moments(draws[0]).skewness <= 0.0 else 2)
                early += len(draws) == 1
        assert early > 0

    def test_only_the_judge_measures_z1_and_z2(self, monkeypatch):
        # a banded attempt measures its two noise draws once each, before
        # they are scaled into Z1 and Z2; evaluate_pair measures Z1 and Z2
        spec = _spec(family=Family.STABLE, skew_ratio=(1.5, 3.0), n_obs=1000, **_STABLE_CELL)
        draws, measured = [], []
        sampler, measure = simulation.sample_with_rng, simulation.moments

        def recording_sampler(params, n, rng):
            draws.append(sampler(params, n, rng))
            return draws[-1].copy()

        def recording_moments(x):
            measured.append(x.copy())
            return measure(x)

        monkeypatch.setattr(simulation, "sample_with_rng", recording_sampler)
        monkeypatch.setattr(simulation, "moments", recording_moments)
        candidates = 0
        for attempt in range(60):
            draws.clear()
            measured.clear()
            candidate = simulation._attempt_stable(spec, *_streams(spec, 0, attempt))
            if candidate is None:
                continue
            candidates += 1
            assert len(measured) == 2
            assert all(np.array_equal(m, d) for m, d in zip(measured, draws))
            measured.clear()
            with contextlib.suppress(ParameterError, DomainError):
                simulation.evaluate_pair(candidate, [LOG1], 0)
            assert len(measured) == 2
            assert all(np.array_equal(m, z) for m, z in zip(measured, candidate))
        assert candidates > 0


class TestMonotonicity:
    def test_neg_power_sweep_non_increasing(self):
        # risk-aversion effect at a skewed cell, 5-point noise allowance
        spec = _spec(
            family=Family.SKEW_NORMAL,
            mean_ratio=1.01,
            std_ratio=1.01,
            skew_ratio=3.0,
            base=MomentTarget(0.01, 0.0235, 0.33),
            n_obs=20000,
            n_pairs=40,
            master_seed=DEFAULT_MASTER_SEED,
        )
        sweep = [UtilitySpec(UtilityFamily.NEG_POWER, a) for a in (1, 5, 10, 20)]
        report = run_scenario(spec, sweep, workers=2)
        values = [report.success_pct[u.identifier] for u in sweep]
        assert all(nxt <= prev + 5.0 for prev, nxt in zip(values, values[1:]))


class TestCorrelationStudy:
    def test_location_shifts_correlate_perfectly(self):
        rng = spawn_rng(9)
        base = rng.normal(0.0, 0.01, 4000)
        lotteries = [base + s for s in np.linspace(-0.002, 0.002, 9)]
        corr = correlation_study(lotteries, LOG1, Expansion.AROUND_MEAN)
        assert corr > 1 - 1e-6

    def test_needs_three_lotteries(self):
        rng = spawn_rng(10)
        with pytest.raises(ParameterError):
            correlation_study([rng.normal(size=50), rng.normal(size=50)], LOG1)

    def test_zero_variance_rejected(self):
        x = np.full(100, 0.01)
        with pytest.raises(ParameterError):
            correlation_study([x, x.copy(), x.copy()], LOG1)

    def test_decile_spread_funds(self):
        # 149 simulated funds with decile-like moment spreads
        means = np.linspace(0.0083, 0.0163, 149)
        stds = np.linspace(0.0807, 0.1772, 149)
        lotteries = [
            sample(NormalParams(m, s), 2000, seed=1000 + i)
            for i, (m, s) in enumerate(zip(means, stds))
        ]
        corr = correlation_study(lotteries, LOG1, Expansion.AROUND_MEAN)
        assert corr > 0.99


class TestConfig:
    def test_round_trip(self, tmp_path):
        scenarios = default_scenarios(master_seed=5)
        path = tmp_path / "grid.ini"
        path.write_text(scenario_config_text(scenarios))
        loaded = load_scenario_config(path)
        assert loaded == scenarios

    def test_missing_key_names_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[cell_a]\nfamily = normal\nmean_ratio = 1.05\n")
        with pytest.raises(UsageError, match="cell_a"):
            load_scenario_config(path)

    def test_bad_value_names_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(
            "[cell_b]\nfamily = normal\nmean_ratio = 0.5\nstd_ratio = 1.05\n"
            "base_mean = 0.01\nbase_std = 0.01\nn_obs = 2000\nn_pairs = 2\nseed = 1\n"
        )
        with pytest.raises(UsageError, match="cell_b"):
            load_scenario_config(path)

    def test_empty_config_rejected(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("\n")
        with pytest.raises(UsageError):
            load_scenario_config(path)

    def test_paper_scale_override(self, tmp_path):
        path = tmp_path / "grid.ini"
        path.write_text(scenario_config_text([_spec()]))
        (loaded,) = load_scenario_config(path, paper_scale=True)
        assert loaded.n_obs == 100_000
        assert loaded.n_pairs == 1_000

    def test_seed_override(self, tmp_path):
        path = tmp_path / "grid.ini"
        path.write_text(scenario_config_text([_spec()]))
        (loaded,) = load_scenario_config(path, seed_override=123)
        assert loaded.master_seed == 123

    def test_default_grid_composition(self):
        scenarios = default_scenarios()
        families = [s.family for s in scenarios]
        assert families.count(Family.NORMAL) == 2
        assert families.count(Family.LAPLACE) == 2
        assert families.count(Family.SKEW_NORMAL) == 4
        assert families.count(Family.GEV) == 4
        assert families.count(Family.STABLE) == 3
