import csv
import dataclasses
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mvlab import dominance
from mvlab.dominance import (
    TOL,
    DiscreteLottery,
    DominanceVerdict,
    EmpiricalDistribution,
    LEFT_TAIL_CONDITION,
    MEAN_CONDITION,
    Order,
    Relation,
    SKEWNESS_CONDITION,
    csv_rows,
    ecdf,
    fsd_test,
    load_lottery,
    mvc_test,
    necessary_screen,
    quadratic_dominance_test,
    satisfies_mv,
    ssd_test,
    tsd_test,
)
from mvlab.errors import IngestionError, ParameterError


class TestDiscreteLottery:
    def test_canonicalization_merges_and_sorts(self):
        lot = DiscreteLottery(np.array([10.0, 5.0, 10.0]), np.array([0.3, 0.4, 0.3]))
        assert list(lot.values) == [5.0, 10.0]
        assert list(lot.probs) == [0.4, 0.6]

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            DiscreteLottery(np.array([1.0, 2.0]), np.array([0.5, 0.4]))

    def test_probabilities_must_be_positive(self):
        with pytest.raises(ParameterError):
            DiscreteLottery(np.array([1.0, 2.0]), np.array([1.1, -0.1]))

    def test_worked_example_moments(self, table12_lotteries):
        z1, z2 = table12_lotteries
        assert z1.mean() == pytest.approx(8.0)
        assert z1.variance() == pytest.approx(6.0)
        assert z2.mean() == pytest.approx(16.0)
        assert z2.variance() == pytest.approx(24.0)

    def test_affine(self, table12_lotteries):
        z1, _ = table12_lotteries
        shifted = z1.affine(2.0, 1.0)
        assert shifted.mean() == pytest.approx(17.0)
        with pytest.raises(ParameterError):
            z1.affine(-1.0, 0.0)


class TestEcdf:
    def test_lottery_steps(self, table12_lotteries):
        z1, _ = table12_lotteries
        dist = ecdf(z1)
        assert dist.at(5) == pytest.approx(0.4)
        assert dist.at(10) == pytest.approx(1.0)
        assert dist.at(4.999) == 0.0
        assert dist.at(7.3) == pytest.approx(0.4)

    def test_single_value(self):
        dist = ecdf(DiscreteLottery.from_pairs([(2.5, 1.0)]))
        assert dist.at(2.4999) == 0.0
        assert dist.at(2.5) == 1.0

    def test_sample_counting(self):
        dist = ecdf(np.array([1.0, 1.0, 2.0]))
        assert dist.at(1.0) == pytest.approx(2 / 3)
        assert dist.at(2.0) == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ParameterError):
            ecdf(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draws_rejected(self, bad):
        # NaN sorts to the end of the support, where a plain comparison passes it
        with pytest.raises(ParameterError, match="finite"):
            ecdf(np.array([0.1, bad, 0.2]))

    @pytest.mark.parametrize(
        "support, cdf",
        [([np.nan], [1.0]), ([1.0, np.nan, 2.0], [0.2, 0.5, 1.0]),
         ([1.0, 2.0], [np.nan, 1.0]), ([1.0, 2.0], [0.5, np.nan])],
    )
    def test_nan_fails_validation(self, support, cdf):
        with pytest.raises(ParameterError):
            EmpiricalDistribution(np.array(support), np.array(cdf))

    def test_cdf_validation(self):
        with pytest.raises(ParameterError):
            EmpiricalDistribution(np.array([1.0, 2.0]), np.array([0.7, 0.5]))
        with pytest.raises(ParameterError):
            EmpiricalDistribution(np.array([1.0, 2.0]), np.array([0.5, 0.9]))

    @pytest.mark.parametrize("start", [-0.5, -1e-9, -np.inf])
    def test_cdf_must_start_at_or_above_zero(self, start):
        # a negative start left a total mass above 1 and a mean outside the support
        with pytest.raises(ParameterError, match="cdf must start at or above 0"):
            EmpiricalDistribution(np.array([1.0, 2.0]), np.array([start, 1.0]))

    def test_cdf_starting_at_zero_within_tol(self):
        dist = EmpiricalDistribution(np.array([1.0, 2.0]), np.array([-TOL, 1.0]))
        assert dist.mean() == pytest.approx(2.0)

    def test_moments_skip_zero_mass_points(self):
        # the cached mass points are not a field, so equality ignores them
        dist = EmpiricalDistribution(np.array([0.0, 1.0, 3.0, 4.0]), np.array([0, 0.5, 0.5, 1]))
        assert (dist.min_value(), dist.max_value()) == (1.0, 4.0)
        assert (dist.mean(), dist.variance(), dist.skewness()) == (2.5, 2.25, 0.0)
        assert [f.name for f in dataclasses.fields(dist)] == ["support", "cdf"]


class TestFSD:
    def test_worked_example_direction(self, table12_lotteries):
        z1, z2 = table12_lotteries
        verdict = fsd_test(ecdf(z1), ecdf(z2))
        assert verdict.relation is Relation.SECOND_DOMINATES
        assert verdict.strict

    def test_identical_indistinguishable(self, table12_lotteries):
        z1, _ = table12_lotteries
        verdict = fsd_test(ecdf(z1), ecdf(z1))
        assert verdict.relation is Relation.INDISTINGUISHABLE
        assert not verdict.strict

    def test_crossing_cdfs(self, table3_lotteries):
        f, g = table3_lotteries
        assert fsd_test(ecdf(f), ecdf(g)).relation is Relation.NO_DOMINANCE


class TestSSD:
    def test_fsd_implies_ssd(self, table12_lotteries):
        z1, z2 = table12_lotteries
        assert ssd_test(ecdf(z1), ecdf(z2)).relation is Relation.SECOND_DOMINATES

    def test_table3_no_dominance_either_way(self, table3_lotteries):
        # ln prefers G while sqrt(1+x) prefers F, so neither can dominate
        f, g = table3_lotteries
        assert ssd_test(ecdf(f), ecdf(g)).relation is Relation.NO_DOMINANCE

    def test_identical(self, table3_lotteries):
        f, _ = table3_lotteries
        assert ssd_test(ecdf(f), ecdf(f)).relation is Relation.INDISTINGUISHABLE

    def test_mean_preserving_spread_dominated(self):
        tight = DiscreteLottery.from_pairs([(4, 0.5), (8, 0.5)])
        spread = DiscreteLottery.from_pairs([(2, 0.25), (6, 0.25), (8, 0.5)])
        assert ssd_test(ecdf(tight), ecdf(spread)).relation is Relation.FIRST_DOMINATES


class TestTSD:
    def test_chain_from_fsd(self, table12_lotteries):
        z1, z2 = table12_lotteries
        assert tsd_test(ecdf(z1), ecdf(z2)).relation is Relation.SECOND_DOMINATES

    def test_identical(self, table12_lotteries):
        z1, _ = table12_lotteries
        assert tsd_test(ecdf(z1), ecdf(z1)).relation is Relation.INDISTINGUISHABLE

    def test_skewness_preference(self):
        # equal mean and variance, right-skewed vs its mirror image: the
        # right-skewed lottery third-order dominates
        right = DiscreteLottery.from_pairs([(0.0, 8 / 9), (3.0, 1 / 9)])
        left = DiscreteLottery.from_pairs([(-7 / 3, 1 / 9), (2 / 3, 8 / 9)])
        assert right.mean() == pytest.approx(left.mean())
        assert right.variance() == pytest.approx(left.variance())
        verdict = tsd_test(ecdf(right), ecdf(left))
        assert verdict.relation is Relation.FIRST_DOMINATES

    def test_dip_inside_a_segment(self):
        # the twice-integrated difference is >= 0 at every support point and
        # mean(F) > mean(G), but between 2 and 6 it dips to -1/30 at x = 11/3
        f = ecdf(DiscreteLottery.from_pairs([(1.0, 0.85), (6.0, 0.15)]))
        g = ecdf(DiscreteLottery.from_pairs([(0.0, 0.3), (2.0, 0.7)]))
        verdict = tsd_test(f, g)
        assert verdict.relation is Relation.NO_DOMINANCE
        assert verdict.witness == pytest.approx(11 / 3)
        assert verdict == _tsd_loop_oracle(f, g)


class TestMVC:
    def test_table3_verdict(self, table3_lotteries):
        f, g = table3_lotteries
        verdict = mvc_test(f.moment_summary(), g.moment_summary())
        assert verdict.relation is Relation.FIRST_DOMINATES
        assert verdict.strict

    def test_equal_moments_indistinguishable(self, table3_lotteries):
        f, _ = table3_lotteries
        m = f.moment_summary()
        assert mvc_test(m, m).relation is Relation.INDISTINGUISHABLE

    def test_conflicting_moments(self, table12_lotteries):
        z1, z2 = table12_lotteries
        # z2 has the higher mean but also the higher std
        assert mvc_test(z2.moment_summary(), z1.moment_summary()).relation is (
            Relation.NO_DOMINANCE
        )

    def test_weak_form(self, table3_lotteries):
        f, g = table3_lotteries
        assert satisfies_mv(f.moment_summary(), g.moment_summary())
        assert not satisfies_mv(g.moment_summary(), f.moment_summary())
        assert satisfies_mv(f.moment_summary(), f.moment_summary())


class TestQuadraticDominance:
    def test_table3_direct_substitution(self, table3_lotteries):
        # dmu=1.57, K=150, mu_bar=9.215, dvar=-102.445:
        # 2*1.57*140.785 + 102.445 > 0 with mean condition satisfied
        f, g = table3_lotteries
        verdict = quadratic_dominance_test(ecdf(f), ecdf(g))
        assert verdict.relation is Relation.FIRST_DOMINATES
        assert verdict.strict

    def test_identical(self, table3_lotteries):
        f, _ = table3_lotteries
        verdict = quadratic_dominance_test(ecdf(f), ecdf(f))
        assert verdict.relation is Relation.INDISTINGUISHABLE

    def test_matches_bliss_point_utility(self, table3_lotteries):
        f, g = table3_lotteries
        k = 150.0
        eu_f = 2 * k * f.mean() - (f.variance() + f.mean() ** 2)
        eu_g = 2 * k * g.mean() - (g.variance() + g.mean() ** 2)
        assert eu_f >= eu_g  # consistent with the FIRST_DOMINATES verdict


class TestNecessaryScreen:
    def test_worked_example_clear(self, table12_lotteries):
        z1, z2 = table12_lotteries
        assert necessary_screen(ecdf(z2), ecdf(z1), Order.FIRST) == []

    def test_table3_left_tail_violated(self, table3_lotteries):
        f, g = table3_lotteries
        violations = necessary_screen(ecdf(f), ecdf(g), Order.SECOND)
        assert LEFT_TAIL_CONDITION in violations

    def test_identical_first_order_mean_violated(self, table12_lotteries):
        z1, _ = table12_lotteries
        violations = necessary_screen(ecdf(z1), ecdf(z1), Order.FIRST)
        assert MEAN_CONDITION in violations

    def test_identical_third_order_skewness_violated(self, table12_lotteries):
        z1, _ = table12_lotteries
        violations = necessary_screen(ecdf(z1), ecdf(z1), Order.THIRD)
        assert SKEWNESS_CONDITION in violations


class TestLotteryCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "lottery.csv"
        path.write_text("value,probability\n5,0.4\n10,0.6\n")
        lot = load_lottery(path)
        assert lot.mean() == pytest.approx(8.0)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,1\n")
        with pytest.raises(IngestionError):
            load_lottery(path)

    def test_bad_row_reported_with_context(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value,probability\n5,0.4\noops,0.6\n")
        with pytest.raises(IngestionError, match="3"):
            load_lottery(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            load_lottery(tmp_path / "absent.csv")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,y\n1,1\n", "{path}: expected header 'value,probability', got ['x', 'y']"),
            ("", "{path}: expected header 'value,probability', got None"),
            ("value,probability\n5,0.4\n10\n", "{path}:3: expected two columns"),
            (
                "value,probability\n5,0.4\n\noops,0.6\n",
                "{path}:4: could not convert string to float: 'oops'",
            ),
            ("value,probability\n\n , \n", "{path}: no outcomes found"),
            (
                "value,probability\n0.1,0.2\n0.3,nan\n",
                "{path}: lottery probabilities must be finite",
            ),
            (
                None,
                "cannot read lottery file {path}: "
                "[Errno 2] No such file or directory: '{path}'",
            ),
        ],
        ids=["bad_header", "empty", "short_row", "bad_float", "no_outcomes",
             "nan_probability", "missing_file"],
    )
    def test_error_message_pinned(self, tmp_path, text, message):
        path = tmp_path / "lottery.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(IngestionError) as info:
            load_lottery(path)
        assert str(info.value) == message.format(path=path)


def _load_lottery_row_loop(path) -> DiscreteLottery:
    """``load_lottery`` as it was before the ``loadtxt`` fast path, kept
    verbatim as the oracle for every file."""
    records = csv_rows(path, "lottery")
    header = next(records)
    if header is None or [h.strip().lower() for h in header[:2]] != ["value", "probability"]:
        raise IngestionError(f"{path}: expected header 'value,probability', got {header}")
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
    try:
        return DiscreteLottery(np.array(values), np.array(probs))
    except ParameterError as exc:
        raise IngestionError(f"{path}: {exc}") from exc


CSV_TOKENS = list("0123456789.e-+_, \t\"#\r\n") + ["nan", "inf"]
CSV_NOISE = st.lists(st.sampled_from(CSV_TOKENS), max_size=12).map("".join)
LOTTERY_HEADERS = [
    "value,probability", " Value ,PROBABILITY", "value,probability,extra",
    "value,probability,", '"value","probability"', 'value,probability,"',
    '"value,probability"', 'value,"probability,x"', "value", "probability,value",
]


@st.composite
def _dyadic_probs(draw):
    """Probabilities that sum to exactly 1: repeated halvings of 1."""
    probs = [1.0]
    for _ in range(draw(st.integers(0, 5))):
        probs.extend([probs.pop(draw(st.integers(0, len(probs) - 1))) / 2.0] * 2)
    return probs


@st.composite
def lottery_csv_texts(draw):
    """Lottery files, half of them clean (assorted number spellings of a
    dyadic lottery under a header that may be odd) and half messy (with
    cells and rows from the characters csv and ``loadtxt`` treat
    differently)."""
    clean = draw(st.booleans())
    number = st.one_of(
        st.builds(repr, st.floats(-1e6, 1e6, allow_nan=False)),
        st.builds("{:.3e}".format, st.floats(-1e6, 1e6, allow_nan=False)),
        st.builds(str, st.integers(-999, 999)),
    )
    special = st.sampled_from(["+.5", " 2 ", "\t3", "-0", "1_000", "1e400", "nan", ""])
    cell = number if clean else st.one_of(number, special, CSV_NOISE)
    extra = st.just("") | (st.just("") if clean else CSV_NOISE).map(",".__add__)
    rows = []
    for prob in draw(_dyadic_probs()):
        spelling = draw(st.sampled_from(["{!r}", "{:.17g}", " {} ", "{:e}"])).format(prob)
        if draw(st.sampled_from([False, False, False, True])):
            spelling = draw(cell)
        rows.append(draw(cell) + "," + spelling + draw(extra))
    for _ in range(draw(st.integers(0, 0 if clean else 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(CSV_NOISE))
    header = draw(st.sampled_from(["value,probability"] * 10 + LOTTERY_HEADERS)) + draw(extra)
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    return "".join(line + draw(ends) for line in [header, *rows])


@given(text=lottery_csv_texts())
@example(text='value,probability,"\n5,0.4,"\n1,0.6\n')
@example(text="value,probability\n\r\n")
@settings(max_examples=400, deadline=None)
def test_load_lottery_matches_row_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "differential_lottery.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = load_lottery(path)
        except IngestionError as exc:
            got = str(exc)
    assert caught == []
    try:
        want = _load_lottery_row_loop(path)
    except IngestionError as exc:
        want = str(exc)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, DiscreteLottery)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.probs, want.probs)



LIMIT = csv.field_size_limit()


@pytest.mark.parametrize(
    "body",
    [
        "0" * LIMIT + "1,1\n",
        "0" * (LIMIT - 1) + "1,1\n",
        "0.5,0.5\n" + "1.5,0.5," + "0," * (LIMIT // 3) + "0\n",
        "0.5,0.5\n" + "1.5,0.5," + "0," * LIMIT + "0\n",
    ],
    ids=["field_past_limit", "field_at_limit", "line_under_limit", "line_past_limit"],
)
def test_long_lines_match_row_loop(tmp_path, body):
    path = tmp_path / "long.csv"
    path.write_text("value,probability\n" + body)
    outcomes = []
    for reader in (load_lottery, _load_lottery_row_loop):
        try:
            lottery = reader(path)
            outcomes.append((lottery.values.tobytes(), lottery.probs.tobytes()))
        except IngestionError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "body, message",
    [("1,1\n2,1\n", "probabilities sum to 2.0, not 1"),
     ("1,0.5\n2,-0.5\n3,1\n", "lottery probabilities must be > 0")],
    ids=["sum", "negative"],
)
def test_rejected_block_skips_row_loop(tmp_path, monkeypatch, body, message):
    # the lottery's error on the parsed block is the answer; parsing the
    # file again row by row took about four times as long to find it again
    path = tmp_path / "rejected.csv"
    path.write_text("value,probability\n" + body)
    items_read = []
    real_csv_rows = dominance.csv_rows

    def recording_csv_rows(*args):
        for item in real_csv_rows(*args):
            items_read.append(item)
            yield item

    monkeypatch.setattr(dominance, "csv_rows", recording_csv_rows)
    with pytest.raises(IngestionError) as info:
        load_lottery(path)
    assert str(info.value) == f"{path}: {message}"
    assert items_read == [["value", "probability"]]  # the header only


@st.composite
def small_lotteries(draw):
    size = draw(st.integers(2, 5))
    values = draw(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    weights = draw(
        st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size)
    )
    probs = np.array(weights) / np.sum(weights)
    return DiscreteLottery(np.array(values), probs)


@given(first=small_lotteries(), second=small_lotteries())
@settings(max_examples=150, deadline=None)
def test_antisymmetry_property(first, second):
    mirror = {
        Relation.FIRST_DOMINATES: Relation.SECOND_DOMINATES,
        Relation.SECOND_DOMINATES: Relation.FIRST_DOMINATES,
        Relation.NO_DOMINANCE: Relation.NO_DOMINANCE,
        Relation.INDISTINGUISHABLE: Relation.INDISTINGUISHABLE,
    }
    f, g = ecdf(first), ecdf(second)
    for rule in (fsd_test, ssd_test, tsd_test):
        assert rule(g, f).relation is mirror[rule(f, g).relation]


def _tsd_loop_oracle(F, G):
    """The per-segment loop version of ``tsd_test`` that the array form
    replaced, kept verbatim apart from inlining the running integral."""
    xs = np.union1d(F.support, G.support)
    d = G.at(xs) - F.at(xs)
    inner = np.zeros(xs.size)
    if xs.size > 1:
        inner[1:] = np.cumsum(d[:-1] * np.diff(xs))
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


def _spread(values, probs, atoms, widths):
    """Split each chosen atom v into v - d and v + d at half its mass:
    a mean-preserving spread."""
    atoms = list(atoms)
    v, p = values[atoms], probs[atoms] / 2.0
    return DiscreteLottery(
        np.concatenate([np.delete(values, atoms), v - widths, v + widths]),
        np.concatenate([np.delete(probs, atoms), p, p]),
    )


@st.composite
def _tsd_pairs(draw):
    """(F, G) step CDFs.  "spreads" splits the even atoms of one base
    lottery on an evenly spaced grid (spacing 0.5 to 2) for F and the odd
    atoms for G, with widths up to 1.5 so that neighbouring spreads often
    overlap: equal means up to rounding, and a running integral that
    changes sign on many segments.  The other kinds are identical
    lotteries, single-point supports, a shift and two independent
    lotteries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spreads", "identical", "single", "shift", "independent"]))
    n = int(rng.integers(2, 16))
    probs = rng.dirichlet(np.ones(n))
    if kind == "spreads":
        values = np.arange(n, dtype=float) * float(rng.uniform(0.5, 2.0))
        widths = rng.uniform(0.05, 1.5, n)
        even, odd = range(0, n, 2), range(1, n, 2)
        return (
            ecdf(_spread(values, probs, even, widths[0::2])),
            ecdf(_spread(values, probs, odd, widths[1::2])),
        )
    if kind == "single":
        a, b = np.round(rng.uniform(-2.0, 2.0, 2), int(rng.integers(0, 3)))
        first = DiscreteLottery.from_pairs([(a, 1.0)])
        second = first if rng.random() < 0.3 else DiscreteLottery.from_pairs([(b, 1.0)])
        if rng.random() < 0.3:
            second = DiscreteLottery(np.round(rng.uniform(-2.0, 2.0, n), 2), probs)
        return ecdf(first), ecdf(second)
    first = DiscreteLottery(np.round(rng.uniform(-5.0, 5.0, n), 2), probs)
    if kind == "identical":
        second = DiscreteLottery(first.values.copy(), first.probs.copy())
    elif kind == "shift":
        second = first.affine(1.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 0.5)))
    else:
        second = DiscreteLottery(np.round(rng.uniform(-5.0, 5.0, n), 2), rng.dirichlet(np.ones(n)))
    return ecdf(first), ecdf(second)


@given(pair=_tsd_pairs())
@settings(max_examples=300, deadline=None)
def test_tsd_matches_segment_loop(pair):
    F, G = pair
    for first, second in ((F, G), (G, F)):
        got, want = tsd_test(first, second), _tsd_loop_oracle(first, second)
        assert got.relation is want.relation
        assert got.strict is want.strict
        assert (got.witness is None) == (want.witness is None)
        assert got.witness == want.witness


def _witness_bits(verdict):
    return None if verdict.witness is None else np.float64(verdict.witness).tobytes()


def _union_oracle_verdict(margin, xs):
    """Verdict of a pointwise margin on the merged support, written out
    branch by branch."""
    first_ok = bool(np.all(margin >= -TOL))
    second_ok = bool(np.all(margin <= TOL))
    if first_ok and second_ok:
        return DominanceVerdict(Relation.INDISTINGUISHABLE, strict=False)
    decides = margin > TOL if first_ok else margin < -TOL
    witness = float(xs[np.argmax(decides)]) if decides.any() else None
    if first_ok:
        return DominanceVerdict(Relation.FIRST_DOMINATES, strict=True, witness=witness)
    if second_ok:
        return DominanceVerdict(Relation.SECOND_DOMINATES, strict=True, witness=witness)
    return DominanceVerdict(Relation.NO_DOMINANCE, strict=False, witness=witness)


def _fsd_union_oracle(F, G):
    """``fsd_test`` as it was before the one-pass merge: ``np.union1d``
    and a ``searchsorted`` lookup per CDF."""
    xs = np.union1d(F.support, G.support)
    return _union_oracle_verdict(G.at(xs) - F.at(xs), xs)


def _ssd_union_oracle(F, G):
    """``ssd_test`` as it was before the one-pass merge."""
    xs = np.union1d(F.support, G.support)
    d = G.at(xs) - F.at(xs)
    integral = np.zeros(xs.size)
    integral[1:] = np.cumsum(d[:-1] * np.diff(xs))
    return _union_oracle_verdict(integral, xs)


def _refined(dist):
    """Insert interval midpoints as zero-mass support points."""
    mids = (dist.support[:-1] + dist.support[1:]) / 2.0
    support = np.sort(np.concatenate([dist.support, mids]))
    return EmpiricalDistribution(support, dist.at(support))


@st.composite
def _merge_pairs(draw):
    """(F, G) step CDFs whose merged support is not a plain interleaving:
    lotteries on a shared coarse grid, the same with zero-mass midpoints
    inserted, single-point supports, a pair with -0.0 in one support and
    0.0 in the other, and ECDFs of samples with tied draws."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["shared", "refined", "single", "signed_zero", "sample"]))

    def grid_lottery(n):
        values = rng.integers(-4, 5, n) / 2.0
        return DiscreteLottery(values, rng.dirichlet(np.ones(n)))

    if kind == "sample":
        draws = [rng.integers(-3, 4, int(rng.integers(1, 30))) / 4.0 for _ in range(2)]
        return ecdf(draws[0]), ecdf(draws[1])
    if kind == "single":
        first = DiscreteLottery.from_pairs([(float(rng.integers(-2, 3)), 1.0)])
        return ecdf(first), ecdf(grid_lottery(int(rng.integers(1, 4))))
    if kind == "signed_zero":
        rest = rng.integers(1, 5, 2) / 2.0
        probs = rng.dirichlet(np.ones(2), 2)
        return (
            ecdf(DiscreteLottery(np.array([-0.0, rest[0]]), probs[0])),
            ecdf(DiscreteLottery(np.array([0.0, rest[1]]), probs[1])),
        )
    F, G = ecdf(grid_lottery(int(rng.integers(1, 8)))), ecdf(grid_lottery(int(rng.integers(1, 8))))
    if kind == "refined":
        return _refined(F), (G if rng.random() < 0.5 else _refined(G))
    return F, G


@given(pair=st.one_of(_merge_pairs(), _tsd_pairs()))
@example(pair=(
    ecdf(DiscreteLottery.from_pairs([(-0.0, 0.25), (1.0, 0.75)])),
    ecdf(DiscreteLottery.from_pairs([(0.0, 0.5), (1.0, 0.5)])),
))
@settings(max_examples=300, deadline=None)
def test_fsd_and_ssd_match_union_oracle(pair):
    F, G = pair
    for first, second in ((F, G), (G, F)):
        for rule, oracle in ((fsd_test, _fsd_union_oracle), (ssd_test, _ssd_union_oracle)):
            got, want = rule(first, second), oracle(first, second)
            assert got.relation is want.relation
            assert got.strict is want.strict
            assert _witness_bits(got) == _witness_bits(want)


def test_merged_support_keeps_first_arguments_signed_zero():
    F = ecdf(DiscreteLottery.from_pairs([(-0.0, 0.25), (1.0, 0.75)]))
    G = ecdf(DiscreteLottery.from_pairs([(0.0, 0.5), (1.0, 0.5)]))
    forward, backward = fsd_test(F, G), fsd_test(G, F)
    assert (forward.relation, forward.strict) == (Relation.FIRST_DOMINATES, True)
    assert np.float64(forward.witness).tobytes() == np.float64(-0.0).tobytes()
    assert (backward.relation, backward.strict) == (Relation.SECOND_DOMINATES, True)
    assert np.float64(backward.witness).tobytes() == np.float64(0.0).tobytes()


def test_merged_support_is_kept_for_the_last_partner_only():
    F = ecdf(DiscreteLottery.from_pairs([(0.0, 0.5), (2.0, 0.5)]))
    G = ecdf(DiscreteLottery.from_pairs([(1.0, 1.0)]))
    H = ecdf(DiscreteLottery.from_pairs([(-1.0, 0.5), (3.0, 0.5)]))
    for partner in (G, H, G):
        assert fsd_test(F, partner) == _fsd_union_oracle(F, partner)
        assert ssd_test(F, partner) == _ssd_union_oracle(F, partner)
        assert tsd_test(F, partner) == _tsd_loop_oracle(F, partner)
    partner = weakref.ref(G)
    del G
    assert partner() is None


@given(
    values=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(-1e6, 1e6)),
        min_size=1, max_size=12,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(values=[0.0, -0.0, 1.0], seed=0)
@example(values=[-0.0, 3.0, 0.0, -0.0], seed=1)
@settings(max_examples=300, deadline=None)
def test_lottery_canonicalization_matches_unique_bincount(values, seed):
    values = np.array(values)
    probs = np.random.default_rng(seed).dirichlet(np.ones(values.size))
    probs /= probs.sum()
    uniq, inverse = np.unique(values, return_inverse=True)
    merged = np.bincount(inverse, weights=probs, minlength=uniq.size)
    lottery = DiscreteLottery(values, probs)
    assert lottery.values.tobytes() == uniq.tobytes()
    assert lottery.probs.tobytes() == merged.tobytes()


@st.composite
def _lotteries_with_tiny_atoms(draw):
    """Lotteries whose atoms may carry a probability far below the ulp of
    the running CDF, beside the ordinary ones."""
    n = draw(st.integers(1, 8))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n, unique=True))
    weights = draw(
        st.lists(
            st.floats(0.01, 1.0) | st.sampled_from([1e-17, 1e-12, 1e-300]),
            min_size=n, max_size=n,
        ).filter(lambda w: max(w) >= 0.01)
    )
    return DiscreteLottery(np.array(values), np.array(weights) / np.sum(weights))


@given(lottery=_lotteries_with_tiny_atoms())
@example(lottery=DiscreteLottery([0.0, 5.0], [1.0, 1e-17]))
@example(lottery=DiscreteLottery([0.0, 1.0], [1.0, 1e-300]))
@settings(max_examples=200, deadline=None)
def test_ecdf_reports_its_lotterys_moments(lottery):
    dist = ecdf(lottery)
    for name in ("mean", "variance", "skewness", "min_value", "max_value", "moment_summary"):
        assert getattr(dist, name)() == getattr(lottery, name)(), name
    assert dist.max_value() == float(lottery.values[-1])
