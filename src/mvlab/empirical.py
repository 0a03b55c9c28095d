"""Monthly-returns ingestion, skewness-sorted deciles, and the
cross-decile MV-pair agreement analysis.

The returns CSV has header ``date,<ticker1>,<ticker2>,...``, ISO dates,
decimal returns, and empty cells for missing observations.  Tickers with
fewer than ``MIN_OBSERVATIONS`` non-missing months are dropped on load.
"""

from __future__ import annotations

import csv
import datetime
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import MomentSummary, moments
from .dominance import Relation, mvc_test
from .errors import DomainError, IngestionError, ParameterError
from .utilities import UtilitySpec, sample_expected_utility

log = logging.getLogger(__name__)

MIN_OBSERVATIONS = 24


@dataclass(frozen=True)
class ReturnsTable:
    tickers: tuple[str, ...]
    periods: tuple[str, ...]
    returns: np.ndarray  # (n_periods, n_tickers), NaN marks missing
    dropped: tuple[str, ...] = ()
    column_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "column_of", {t: j for j, t in enumerate(self.tickers)})

    def column(self, ticker: str) -> np.ndarray:
        """Full column of one ticker, NaN where missing."""
        return self.returns[:, self.column_of[ticker]]

    def series(self, ticker: str) -> np.ndarray:
        """Non-missing return series of one ticker."""
        col = self.column(ticker)
        return col[~np.isnan(col)]


@dataclass(frozen=True)
class DecileStats:
    decile: int
    n_tickers: int
    mean: float
    std: float
    skewness: float


@dataclass(frozen=True)
class DecileAssignment:
    """Contiguous skewness-sorted blocks; decile 1 holds the most
    negatively skewed tickers.  Sizes differ by at most one."""

    deciles: tuple[tuple[str, ...], ...]
    decile_of: dict[str, int]
    stats: tuple[DecileStats, ...]


@dataclass(frozen=True)
class CrossDecileCell:
    """Agreement percentages for MV pairs of (decile-1 stock, decile-k
    stock).  ``success_pct`` maps utility id -> percentage over the pairs
    that were evaluable for that utility; a utility with no evaluable
    pairs is absent from the map."""

    decile: int
    n_mv_pairs: int
    n_evaluated: dict[str, int]
    success_pct: dict[str, float]


def load_returns(path, min_observations: int = MIN_OBSERVATIONS) -> ReturnsTable:
    """Parse and validate a returns CSV; drops under-observed tickers."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if not header or header[0].strip().lower() != "date" or len(header) < 2:
                raise IngestionError(
                    f"{path}: expected header 'date,<ticker>,...', got {header}"
                )
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
            for row_no, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) != len(tickers) + 1:
                    raise IngestionError(
                        f"{path}:{row_no}: expected {len(tickers) + 1} columns, "
                        f"got {len(row)}"
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
                    if value <= -1.0:
                        raise IngestionError(
                            f"{path}:{row_no}: return {value} for {tickers[j]} "
                            f"is <= -1"
                        )
                    values[j] = value
                periods.append(date_text)
                rows.append(values)
    except OSError as exc:
        raise IngestionError(f"cannot read returns file {path}: {exc}") from exc
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


def build_deciles(table: ReturnsTable, d: int) -> DecileAssignment:
    """Sort tickers by sample skewness (ascending, ties broken by ticker
    name) and cut into ``d`` near-equal contiguous blocks."""
    if d < 2:
        raise ParameterError(f"need at least 2 deciles, got {d}")
    if len(table.tickers) < d:
        raise ParameterError(
            f"cannot form {d} deciles from {len(table.tickers)} tickers"
        )
    per_ticker: dict[str, MomentSummary] = {
        t: moments(table.series(t)) for t in table.tickers
    }
    ordered = sorted(table.tickers, key=lambda t: (per_ticker[t].skewness, t))
    blocks = [list(b) for b in np.array_split(np.array(ordered, dtype=object), d)]
    deciles = tuple(tuple(str(t) for t in block) for block in blocks)
    decile_of = {t: k + 1 for k, block in enumerate(deciles) for t in block}
    stats = []
    for k, block in enumerate(deciles, start=1):
        ms = [per_ticker[t] for t in block]
        stats.append(
            DecileStats(
                decile=k,
                n_tickers=len(block),
                mean=float(np.mean([m.mean for m in ms])),
                std=float(np.mean([m.std for m in ms])),
                skewness=float(np.mean([m.skewness for m in ms])),
            )
        )
    return DecileAssignment(deciles=deciles, decile_of=decile_of, stats=tuple(stats))


def _overlapping(table: ReturnsTable, ticker_a: str, ticker_b: str):
    col_a = table.column(ticker_a)
    col_b = table.column(ticker_b)
    mask = ~np.isnan(col_a) & ~np.isnan(col_b)
    return col_a[mask], col_b[mask]


def cross_decile_analysis(
    assignment: DecileAssignment,
    table: ReturnsTable,
    utilities: list[UtilitySpec],
    min_overlap: int = MIN_OBSERVATIONS,
) -> list[CrossDecileCell]:
    """Agreement table over (decile-1 stock, decile-k stock) MV pairs.

    A pair qualifies when the overlapping histories span at least
    ``min_overlap`` periods and the decile-1 stock strictly satisfies the
    MV rule on those overlapping moments.  Agreement per utility is the
    weak expected-utility inequality; pairs whose returns breach a
    utility's clamping budget are excluded from that utility's cell only.
    """
    utilities = list(utilities)
    cells = []
    decile_1 = assignment.deciles[0]
    for k, block in enumerate(assignment.deciles, start=1):
        n_pairs = 0
        n_eval = {u.identifier: 0 for u in utilities}
        n_agree = {u.identifier: 0 for u in utilities}
        for stock_1 in decile_1:
            for stock_2 in block:
                if stock_1 == stock_2:
                    continue
                r1, r2 = _overlapping(table, stock_1, stock_2)
                if r1.size < min_overlap:
                    continue
                verdict = mvc_test(moments(r1), moments(r2))
                if verdict.relation is not Relation.FIRST_DOMINATES:
                    continue
                n_pairs += 1
                for u in utilities:
                    try:
                        eu1, _ = sample_expected_utility(r1, u)
                        eu2, _ = sample_expected_utility(r2, u)
                    except DomainError:
                        continue
                    n_eval[u.identifier] += 1
                    if eu1 >= eu2:
                        n_agree[u.identifier] += 1
        success = {
            uid: 100.0 * n_agree[uid] / n_eval[uid]
            for uid in n_eval
            if n_eval[uid] > 0
        }
        cells.append(
            CrossDecileCell(
                decile=k,
                n_mv_pairs=n_pairs,
                n_evaluated=n_eval,
                success_pct=success,
            )
        )
    return cells
