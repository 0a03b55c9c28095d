import numpy as np
import pytest

from mvlab.distributions import Family, MomentTarget, moments, sample, solve_params_for_moments
from mvlab.empirical import build_deciles, cross_decile_analysis, load_returns
from mvlab.errors import IngestionError, ParameterError
from mvlab.rng import spawn_rng
from mvlab.utilities import UtilityFamily, UtilitySpec

LOG1 = UtilitySpec(UtilityFamily.LOG, 1.0)
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

    def test_missing_cells_are_nan(self, tmp_path):
        path = tmp_path / "returns.csv"
        col = [0.01] * 40
        col[3] = None
        _write_panel(path, ["A"], [col], 40)
        table = load_returns(path)
        assert table.series("A").size == 39


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
        assert set(assignment.decile_of) == set(tickers)

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
