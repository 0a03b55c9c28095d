import datetime
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mvlab.distributions import Family, MomentTarget, moments, sample, solve_params_for_moments
from mvlab.dominance import Relation, csv_rows, mvc_test
from mvlab.empirical import (
    MIN_OBSERVATIONS,
    CrossDecileCell,
    DecileAssignment,
    ReturnsTable,
    _returns_block,
    build_deciles,
    cross_decile_analysis,
    load_returns,
)
from mvlab.errors import DomainError, IngestionError, ParameterError
from mvlab.rng import spawn_rng
from mvlab.utilities import UtilityFamily, UtilitySpec, sample_expected_utility, table6_panel

LOG1 = UtilitySpec(UtilityFamily.LOG, 1.0)
LOG09 = UtilitySpec(UtilityFamily.LOG, 0.9)
NEG_POWER_20 = UtilitySpec(UtilityFamily.NEG_POWER, 20.0)


def _dates(n):
    years = 2000 + np.arange(n) // 12
    months = np.arange(n) % 12 + 1
    return [f"{y}-{m:02d}-01" for y, m in zip(years, months)]


def _write_panel(path, tickers, columns, n_periods):
    lines = ["date," + ",".join(tickers)]
    for t in range(n_periods):
        cells = []
        for col in columns:
            value = col[t]
            cells.append("" if value is None or (isinstance(value, float) and np.isnan(value)) else f"{value:.6f}")
        lines.append(_dates(n_periods)[t] + "," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _synthetic_panel(path, n_tickers=30, n_periods=120, seed=314):
    """Tickers sampled from skew-normal families with spread skewness."""
    tickers = [f"T{i:02d}" for i in range(n_tickers)]
    skews = np.linspace(-0.8, 0.9, n_tickers)
    columns = []
    for i, s in enumerate(skews):
        params = solve_params_for_moments(
            Family.SKEW_NORMAL, MomentTarget(0.01, 0.05, float(s))
        )
        columns.append(sample(params, n_periods, seed=seed + i))
    _write_panel(path, tickers, columns, n_periods)
    return tickers


class TestLoadReturns:
    def test_basic_fixture(self, tmp_path):
        path = tmp_path / "returns.csv"
        _synthetic_panel(path, n_tickers=3)
        table = load_returns(path)
        assert len(table.tickers) == 3
        assert len(table.periods) == 120

    def test_under_observed_ticker_dropped(self, tmp_path):
        path = tmp_path / "returns.csv"
        rng = spawn_rng(1)
        full = rng.normal(0.01, 0.05, 60)
        sparse = [None] * 50 + list(rng.normal(0.01, 0.05, 10))
        _write_panel(path, ["KEEP", "DROP"], [full, sparse], 60)
        table = load_returns(path)
        assert table.tickers == ("KEEP",)
        assert table.dropped == ("DROP",)

    def test_return_below_minus_one_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        col = [0.01] * 30
        col[7] = -1.5
        _write_panel(path, ["BAD"], [col], 30)
        with pytest.raises(IngestionError, match="9"):  # header + 1-based offset
            load_returns(path)

    def test_duplicate_ticker_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("date,A,A\n2000-01-01,0.1,0.2\n")
        with pytest.raises(IngestionError, match="duplicate"):
            load_returns(path)

    def test_malformed_cell_named(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("date,A\n2000-01-01,0.1\n2000-02-01,oops\n")
        with pytest.raises(IngestionError, match="3"):
            load_returns(path)

    def test_bad_date_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_text("date,A\nJan-2000,0.1\n")
        with pytest.raises(IngestionError, match="date"):
            load_returns(path)

    def test_column_lookup_after_drops(self, tmp_path):
        path = tmp_path / "returns.csv"
        rng = spawn_rng(2)
        full = [rng.normal(0.01, 0.05, 60) for _ in range(3)]
        sparse = [None] * 50 + list(rng.normal(0.01, 0.05, 10))
        _write_panel(path, ["C", "DROP", "A", "B"], [full[0], sparse, full[1], full[2]], 60)
        table = load_returns(path)
        assert table.column_of == {"C": 0, "A": 1, "B": 2}
        for j, t in enumerate(table.tickers):
            np.testing.assert_array_equal(table.column(t), table.returns[:, j])
            written = [float(f"{v:.6f}") for v in full[j]]
            np.testing.assert_array_equal(table.series(t), written)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "Infinity", "NaN"])
    def test_non_finite_return_rejected(self, tmp_path, cell):
        path = tmp_path / "returns.csv"
        path.write_text(f"date,A,B\n2000-01-01,0.1,0.2\n2000-02-01,0.1,{cell}\n")
        with pytest.raises(IngestionError, match=r":3: non-finite return .* for B"):
            load_returns(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "Date;A\n2000-01-01;0.1\n",
                "{path}: expected header 'date,<ticker>,...', got ['Date;A']",
            ),
            ("date\n2000-01-01\n", "{path}: expected header 'date,<ticker>,...', got ['date']"),
            ("", "{path}: expected header 'date,<ticker>,...', got None"),
            ("date,A, \n2000-01-01,0.1,0.2\n", "{path}: blank ticker name in header"),
            ("date,A,B,A\n2000-01-01,0.1,0.2,0.3\n", "{path}: duplicate ticker 'A'"),
            ("date,A,B\n2000-01-01,0.1\n", "{path}:2: expected 3 columns, got 2"),
            ("date,A\nJan-2000,0.1\n", "{path}:2: bad date 'Jan-2000'"),
            (
                "date,A\n2000-01-01,0.1\n\n2000-03-01, oops \n",
                "{path}:4: bad return 'oops' for A",
            ),
            ("date,A,B\n2000-01-01,0.1,inf\n", "{path}:2: non-finite return 'inf' for B"),
            ("date,A\n2000-01-01,-1.5\n", "{path}:2: return -1.5 for A is <= -1"),
            ("date,A\n2000-01-01,-1\n", "{path}:2: return -1.0 for A is <= -1"),
            ("date,A\n\n , \n", "{path}: no data rows"),
            (
                None,
                "cannot read returns file {path}: "
                "[Errno 2] No such file or directory: '{path}'",
            ),
        ],
        ids=["bad_header", "date_only", "empty", "blank_ticker", "duplicate_ticker",
             "column_count", "bad_date", "bad_return", "non_finite", "below_minus_one",
             "minus_one", "no_data_rows", "missing_file"],
    )
    def test_error_message_pinned(self, tmp_path, text, message):
        path = tmp_path / "returns.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(IngestionError) as info:
            load_returns(path)
        assert str(info.value) == message.format(path=path)

    def test_missing_cells_are_nan(self, tmp_path):
        path = tmp_path / "returns.csv"
        col = [0.01] * 40
        col[3] = None
        _write_panel(path, ["A"], [col], 40)
        table = load_returns(path)
        assert table.series("A").size == 39


log = logging.getLogger(__name__)


def _load_returns_row_loop(path, min_observations: int = MIN_OBSERVATIONS) -> ReturnsTable:
    """``load_returns`` as it was before the bulk parse, kept verbatim as
    the oracle for every file."""
    records = csv_rows(path, "returns")
    header = next(records)
    if not header or header[0].strip().lower() != "date" or len(header) < 2:
        raise IngestionError(f"{path}: expected header 'date,<ticker>,...', got {header}")
    tickers = [t.strip() for t in header[1:]]
    if any(not t for t in tickers):
        raise IngestionError(f"{path}: blank ticker name in header")
    seen = set()
    for t in tickers:
        if t in seen:
            raise IngestionError(f"{path}: duplicate ticker {t!r}")
        seen.add(t)
    periods = []
    rows = []
    for row_no, row in records:
        if len(row) != len(tickers) + 1:
            raise IngestionError(
                f"{path}:{row_no}: expected {len(tickers) + 1} columns, got {len(row)}"
            )
        date_text = row[0].strip()
        try:
            datetime.date.fromisoformat(date_text)
        except ValueError as exc:
            raise IngestionError(f"{path}:{row_no}: bad date {date_text!r}") from exc
        values = np.full(len(tickers), np.nan)
        for j, cell in enumerate(row[1:]):
            cell = cell.strip()
            if not cell:
                continue
            try:
                value = float(cell)
            except ValueError as exc:
                raise IngestionError(
                    f"{path}:{row_no}: bad return {cell!r} for {tickers[j]}"
                ) from exc
            if not math.isfinite(value):
                raise IngestionError(
                    f"{path}:{row_no}: non-finite return {cell!r} for {tickers[j]}"
                )
            if value <= -1.0:
                raise IngestionError(
                    f"{path}:{row_no}: return {value} for {tickers[j]} is <= -1"
                )
            values[j] = value
        periods.append(date_text)
        rows.append(values)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    matrix = np.vstack(rows)
    counts = np.sum(~np.isnan(matrix), axis=0)
    keep = counts >= min_observations
    dropped = tuple(t for t, k in zip(tickers, keep) if not k)
    for t in dropped:
        log.info("dropping %s: fewer than %d observations", t, min_observations)
    kept = tuple(t for t, k in zip(tickers, keep) if k)
    table = ReturnsTable(
        tickers=kept,
        periods=tuple(periods),
        returns=matrix[:, keep],
        dropped=dropped,
    )
    log.info(
        "loaded %s: %d periods, %d tickers kept, %d dropped",
        path,
        len(table.periods),
        len(kept),
        len(dropped),
    )
    return table


RETURNS_HEADERS = [
    "date,A", "date,A,B,C", " Date , A ,B", "DATE,A,B", "date,A,A", "date,A,",
    '"date",A,B', 'date,"A\nB"', "date", "day,A,B", "date,caf\u00e9,B",
]
RETURNS_NOISE = st.lists(
    st.sampled_from(list("0123456789.eE+-_, \t\"\r\n") + ["nan", "inf"]), max_size=10
).map("".join)


@st.composite
def returns_csv_texts(draw):
    """Returns files, half of them clean (a plain header, ISO dates, assorted
    number spellings and missing cells) and half messy (odd headers, dates,
    cells and line ends, and rows that are blank or commas only)."""
    clean = draw(st.booleans())
    n_tickers = draw(st.integers(1, 3))
    header = "date," + ",".join("ABC"[:n_tickers])
    if not clean:
        header = draw(st.sampled_from([header] * 4 + RETURNS_HEADERS))
    number = st.one_of(
        st.builds(repr, st.floats(-0.99, 5.0)),
        st.builds("{:.6f}".format, st.floats(-0.99, 5.0)),
        st.builds("{:.3e}".format, st.floats(-0.99, 5.0)),
        st.builds(str, st.integers(0, 9)),
        st.just(""),
    )
    special = st.sampled_from(
        [" 0.5 ", "\t0.1", "nan", "inf", "1e400", "-1", "-1.5", "1_000", "+.5", "-0", "e",
         "1e", "--1", "."]
    )
    cell = number if clean else st.one_of(number, special, RETURNS_NOISE)
    day = st.dates(datetime.date(1990, 1, 1), datetime.date(2030, 12, 31)).map(str)
    odd_day = st.sampled_from(["", "Jan-2000", "2000-13-01", " 2000-01-01", "20000101", "2000"])
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        date = draw(day if clean else st.one_of(day, odd_day))
        width = n_tickers if clean else draw(st.sampled_from([n_tickers] * 6 + [0, 1, 4]))
        rows.append(",".join([date] + [draw(cell) for _ in range(width)]))
    if not clean:
        for _ in range(draw(st.integers(0, 2))):
            filler = draw(st.sampled_from(["", ",", ",,,", " ", draw(RETURNS_NOISE)]))
            rows.insert(draw(st.integers(0, len(rows))), filler)
    ends = st.just("\n") if clean else st.sampled_from(["\n", "\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in [header, *rows])
    return text + draw(st.sampled_from(["", "", "\n", "\n\n"]))


@given(text=returns_csv_texts(), min_observations=st.integers(1, 4))
@example(text='date,"A\nB"\n2000-01-01,0.1\n', min_observations=1)
@example(text="date,A\r2000-01-01,0.1\r2000-02-01,\r", min_observations=1)
@example(text="date,A,B\r\n2000-01-01,0.1,\r\n2000-02-01,0.2,0.3\r\n", min_observations=1)
@example(text="date,A\r2000-01-01,0.1\n2000-02-01,0.2\n", min_observations=1)
@example(text="date,A\n2000-01-01,0." + "0" * 131_071 + "\n", min_observations=1)
@example(text="date,A,B\n,,\n2000-01-01,0.1,0.2\n,,\n", min_observations=1)
@example(text="date,A\n2000-01-01, 0.5 \n", min_observations=1)
@example(text="date,A\n2000-01-01,nan\n", min_observations=1)
@example(text="date,A\n2000-01-01,1e400\n", min_observations=1)
@example(text="date,A\n2000-01-01,-1\n", min_observations=1)
@example(text="date,A\n2000-01-01,1_000\n", min_observations=1)
@example(text="date,A\n2000-01-01,0.1\n2000-02-01,0.2\n\n\n", min_observations=1)
@example(text="date,A\n2000-01-01,0.1 caf\udce9\n", min_observations=1)
@example(text="date,caf\udce9\n2000-01-01,0.1\n", min_observations=1)
@settings(max_examples=300, deadline=None)
def test_load_returns_matches_row_loop(tmp_path_factory, text, min_observations):
    path = tmp_path_factory.getbasetemp() / "differential_returns.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    outcomes = []
    for reader in (load_returns, _load_returns_row_loop):
        try:
            table = reader(path, min_observations)
            outcomes.append(
                (table.tickers, table.periods, table.dropped, table.returns.shape,
                 table.returns.tobytes(), table.returns.flags.c_contiguous)
            )
        except IngestionError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_bulk_parse_takes_plain_files_only(tmp_path):
    path = tmp_path / "returns.csv"
    path.write_text("date,A,B\n2000-01-01,0.1,\n,,\n2000-02-01,-0.5,1e-3\n")
    periods, matrix = _returns_block(path, 3)
    assert periods == ["2000-01-01", "2000-02-01"]
    np.testing.assert_array_equal(matrix, [[0.1, np.nan], [-0.5, 1e-3]])
    for text in ["date,A\r\n2000-01-01,0.1\r\n", "date,A\n2000-01-01, 0.1\n",
                 'date,"A"\n2000-01-01,0.1\n', "date,A\n2000-01-01,1e400\n"]:
        path.write_text(text, newline="")
        assert _returns_block(path, 2) is None


class TestBuildDeciles:
    def test_one_per_decile_preserves_order(self, tmp_path):
        path = tmp_path / "returns.csv"
        _synthetic_panel(path, n_tickers=10, n_periods=200)
        table = load_returns(path)
        assignment = build_deciles(table, 10)
        assert all(len(block) == 1 for block in assignment.deciles)
        skews = [assignment.stats[k].skewness for k in range(10)]
        assert skews == sorted(skews)

    def test_sizes_differ_by_at_most_one(self, tmp_path):
        path = tmp_path / "returns.csv"
        _synthetic_panel(path, n_tickers=23)
        assignment = build_deciles(load_returns(path), 10)
        sizes = [len(b) for b in assignment.deciles]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 23

    def test_partition_is_permutation(self, tmp_path):
        path = tmp_path / "returns.csv"
        tickers = _synthetic_panel(path, n_tickers=30)
        assignment = build_deciles(load_returns(path), 10)
        flat = [t for block in assignment.deciles for t in block]
        assert sorted(flat) == sorted(tickers)

    def test_equal_skews_tie_break_by_ticker(self, tmp_path):
        path = tmp_path / "returns.csv"
        rng = spawn_rng(2)
        col = rng.normal(0.01, 0.05, 60)
        # identical columns share identical skewness
        _write_panel(path, ["B", "A", "C", "D"], [col] * 4, 60)
        assignment = build_deciles(load_returns(path), 2)
        assert assignment.deciles == (("A", "B"), ("C", "D"))

    def test_too_few_tickers(self, tmp_path):
        path = tmp_path / "returns.csv"
        _synthetic_panel(path, n_tickers=4)
        with pytest.raises(ParameterError):
            build_deciles(load_returns(path), 10)

    def test_monotone_average_skewness(self, tmp_path):
        path = tmp_path / "returns.csv"
        _synthetic_panel(path, n_tickers=40, n_periods=240)
        assignment = build_deciles(load_returns(path), 10)
        skews = [s.skewness for s in assignment.stats]
        assert all(a < b for a, b in zip(skews, skews[1:]))


class TestCrossDecileAnalysis:
    def test_identical_series_excluded(self, tmp_path):
        path = tmp_path / "returns.csv"
        rng = spawn_rng(3)
        col = rng.normal(0.01, 0.04, 60)
        other = rng.normal(0.005, 0.08, 60)
        _write_panel(path, ["A", "B"], [col, col.copy()], 60)
        table = load_returns(path)
        # identical moments: the MV verdict is indistinguishable, pair excluded
        assignment = build_deciles(table, 2)
        cells = cross_decile_analysis(assignment, table, [LOG1])
        assert all(cell.n_mv_pairs == 0 for cell in cells)

    def test_engineered_disagreement_for_harsh_utility(self, tmp_path):
        # decile-1-style stock: higher mean, lower std, but a wide bulk with
        # -8% months; decile-10-style stock: slightly worse moments, thin
        # left edge, rare +35% jumps; the very risk-averse investor
        # prefers the jumpy one against the MV verdict
        path = tmp_path / "returns.csv"
        a = np.tile([0.1, -0.076, 0.012, 0.02, -0.01, 0.09, -0.08, 0.04], 6)
        b = np.tile(
            [-0.025, -0.02, -0.015, -0.01, -0.005, -0.022, -0.018, -0.012,
             -0.025, -0.008, -0.02, -0.015, -0.01, -0.018, -0.022, 0.35],
            3,
        )
        _write_panel(path, ["SAFE", "JUMPY"], [a, b], 48)
        table = load_returns(path)
        m_a, m_b = moments(table.series("SAFE")), moments(table.series("JUMPY"))
        assert m_a.mean > m_b.mean and m_a.std < m_b.std  # SAFE is MV-dominant
        assert m_b.skewness > 1.0  # JUMPY carries the positive skew
        assignment = build_deciles(table, 2)
        cells = cross_decile_analysis(assignment, table, [LOG1, NEG_POWER_20])
        cell = cells[1]
        assert cell.n_mv_pairs == 1
        assert cell.success_pct["log:1"] == 100.0
        assert cell.success_pct["neg_power:20"] == 0.0

    def test_normal_panel_log_agreement(self, tmp_path):
        # Gaussian panel: agreement for the log investor is ~100%
        path = tmp_path / "returns.csv"
        rng_ms = spawn_rng(4)
        tickers = [f"N{i:02d}" for i in range(24)]
        cols = [
            spawn_rng(5, i).normal(rng_ms.uniform(0.005, 0.015), rng_ms.uniform(0.03, 0.09), 240)
            for i in range(24)
        ]
        _write_panel(path, tickers, cols, 240)
        table = load_returns(path)
        assignment = build_deciles(table, 4)
        cells = cross_decile_analysis(assignment, table, [LOG1])
        rates = [c.success_pct["log:1"] for c in cells if c.n_mv_pairs > 0]
        assert rates, "panel produced no MV pairs"
        assert min(rates) >= 99.0

    def test_rerun_is_identical(self, tmp_path):
        path = tmp_path / "returns.csv"
        _synthetic_panel(path, n_tickers=20, n_periods=120)
        table = load_returns(path)
        assignment = build_deciles(table, 4)
        first = cross_decile_analysis(assignment, table, [LOG1])
        second = cross_decile_analysis(assignment, table, [LOG1])
        assert first == second


def _loop_oracle(assignment, table, utilities, min_overlap=MIN_OBSERVATIONS):
    """The per-pair loop that the matrix form replaced: ``moments``,
    ``mvc_test`` and ``sample_expected_utility`` on each candidate pair's
    overlapping months."""
    cells = []
    for k, block in enumerate(assignment.deciles, start=1):
        n_pairs = 0
        n_eval = {u.identifier: 0 for u in utilities}
        n_agree = dict(n_eval)
        for stock_1 in assignment.deciles[0]:
            for stock_2 in block:
                if stock_1 == stock_2:
                    continue
                col_1, col_2 = table.column(stock_1), table.column(stock_2)
                both = ~np.isnan(col_1) & ~np.isnan(col_2)
                r1, r2 = col_1[both], col_2[both]
                if r1.size < min_overlap:
                    continue
                if mvc_test(moments(r1), moments(r2)).relation is not Relation.FIRST_DOMINATES:
                    continue
                n_pairs += 1
                for u in utilities:
                    try:
                        eu1, _ = sample_expected_utility(r1, u)
                        eu2, _ = sample_expected_utility(r2, u)
                    except DomainError:
                        continue
                    n_eval[u.identifier] += 1
                    n_agree[u.identifier] += int(eu1 >= eu2)
        success = {uid: 100.0 * n_agree[uid] / n for uid, n in n_eval.items() if n > 0}
        cells.append(CrossDecileCell(k, n_pairs, n_eval, success))
    return cells


def _table(columns) -> ReturnsTable:
    returns = np.column_stack(columns)
    tickers = tuple(f"T{j:02d}" for j in range(returns.shape[1]))
    return ReturnsTable(tickers=tickers, periods=tuple(_dates(returns.shape[0])), returns=returns)


@st.composite
def _oracle_panels(draw):
    """(table, n_deciles, min_overlap): random columns with about 5% blank
    months, an identical and a mirrored copy (exact MV ties), late listings
    whose overlaps fall at and just below ``min_overlap``, and months at or
    just beyond the log:0.9 edge of -0.9, which only that utility clamps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_periods = draw(st.integers(24, 48))
    min_overlap = draw(st.integers(8, 20))
    n_base = draw(st.integers(4, 9))
    base = rng.normal(
        rng.uniform(-0.01, 0.02, n_base), rng.uniform(0.02, 0.1, n_base), (n_periods, n_base)
    )
    columns = list(base.T) + [base[:, 0].copy(), -base[:, 1]]
    for listed in (min_overlap, min_overlap - 1):
        late = rng.normal(0.01, 0.05, n_periods)
        late[: n_periods - listed] = np.nan
        columns.append(late)
    for j in draw(st.lists(st.integers(2, n_base - 1), max_size=2, unique=True)):
        rows = rng.choice(n_periods, int(rng.integers(1, 3)), replace=False)
        columns[j][rows] = rng.choice([-0.9, -0.95, -0.8999], rows.size)
    table = _table(columns)
    table.returns[rng.random(table.returns.shape) < 0.05] = np.nan
    return table, draw(st.integers(2, 4)), min_overlap


class TestLoopOracle:
    @given(panel=_oracle_panels())
    @settings(max_examples=60, deadline=None)
    def test_matches_pair_loop(self, panel):
        table, n_deciles, min_overlap = panel
        assignment = build_deciles(table, n_deciles)
        utilities = table6_panel()
        got = cross_decile_analysis(assignment, table, utilities, min_overlap=min_overlap)
        assert got == _loop_oracle(assignment, table, utilities, min_overlap=min_overlap)

    def test_clamp_budget_is_per_utility(self):
        # SAFE dominates EDGY and CALM on MV; one EDGY month at -0.95 is past
        # the log:0.9 edge (-0.9) but inside the log:1 edge (-1), so only
        # log:0.9 drops the (SAFE, EDGY) pair
        rng = np.random.default_rng(11)
        safe = rng.normal(0.03, 0.02, 36)
        edgy = rng.normal(0.0, 0.1, 36)
        edgy[5] = -0.95
        calm = rng.normal(0.01, 0.05, 36)
        table = _table([safe, edgy, calm])
        assignment = DecileAssignment(
            deciles=(("T00",), ("T01", "T02")),
            stats=(),
        )
        utilities = [LOG09, LOG1]
        cells = cross_decile_analysis(assignment, table, utilities)
        assert cells == _loop_oracle(assignment, table, utilities)
        assert cells[1].n_mv_pairs == 2
        assert cells[1].n_evaluated == {"log:0.9": 1, "log:1": 2}
