"""Monthly-returns ingestion, skewness-sorted deciles, and the
cross-decile MV-pair agreement analysis.

The returns CSV has header ``date,<ticker1>,<ticker2>,...``, ISO dates,
finite decimal returns above -1, and empty cells for missing observations.
Tickers with fewer than ``MIN_OBSERVATIONS`` non-missing months are
dropped on load.
"""

from __future__ import annotations

import datetime
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import MomentSummary, moments
from .dominance import csv_rows, splits_like_csv
# ``mvc_test`` and ``sample_expected_utility`` are not called here; they stay
# module attributes because bench/tracing.py wraps them at this module.
from .dominance import mvc_test
from .errors import IngestionError, ParameterError
from .utilities import (
    UtilitySpec,
    clamped_panel,
    over_clamp_budget,
    sample_expected_utility,
)

log = logging.getLogger(__name__)

MIN_OBSERVATIONS = 24

# The bytes a returns block may hold for the bulk parse: ISO dates,
# decimal returns, separators and line feeds.
_PLAIN_BLOCK_BYTES = b"0123456789.eE+-,\n"


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
    """Parse and validate a returns CSV; drops under-observed tickers.  The
    block under the header goes through :func:`_returns_block` first; the
    row loop reads only the files it hands back, and names every error."""
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
    block = _returns_block(path, len(tickers) + 1)
    if block is not None:
        records.close()
        periods, matrix = block
    else:
        periods, matrix = _returns_rows(path, records, tickers)
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


def _returns_block(path, n_columns: int):
    """(periods, returns matrix) of the rows under the header, split in
    bulk, or None when the file needs :func:`load_returns`'s row loop:
    bytes that fail :func:`~mvlab.dominance.splits_like_csv`, a carriage
    return, a byte under the header other than digits, ``.eE+-``, commas
    and line feeds, a row of the wrong width, a bad date or return, or no
    rows at all.  On the bytes it keeps, a split on commas and line feeds
    gives the cells csv gives, with nothing to strip, so the periods and
    the values (``float`` reads ASCII bytes as it reads text) are those
    of the row loop; only the row loop names errors."""
    try:
        with open(path, "rb") as handle:
            header = handle.readline()
            body = handle.read()
    except OSError:
        return None
    for part in (header, body):
        if b"\r" in part or not splits_like_csv(part):
            return None
    if body.translate(None, _PLAIN_BLOCK_BYTES):
        return None
    lines = [line for line in body.split(b"\n") if line.strip(b",")]
    del body
    if not lines:
        return None
    periods = []
    matrix = np.empty((len(lines), n_columns - 1))
    try:
        for i, line in enumerate(lines):
            cells = line.split(b",")
            if len(cells) != n_columns:
                return None
            date_text = cells[0].decode("ascii")
            datetime.date.fromisoformat(date_text)
            periods.append(date_text)
            matrix[i] = [float(cell) if cell else math.nan for cell in cells[1:]]
    except ValueError:
        return None
    if np.isinf(matrix).any() or (matrix <= -1.0).any():
        return None
    return periods, matrix


def _returns_rows(path, records, tickers: list[str]):
    """(periods, returns matrix) read row by row from ``records``, the
    :func:`~mvlab.dominance.csv_rows` stream past the header; raises
    :class:`IngestionError` naming the first bad row."""
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
    return periods, matrix


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
    return DecileAssignment(deciles=deciles, stats=tuple(stats))


def _mean_std(sums: np.ndarray, sums_sq: np.ndarray, n: np.ndarray):
    """Mean and divide-by-n std from sums of x and x² over n values."""
    mean = sums / n
    return mean, np.sqrt(np.maximum(sums_sq / n - mean * mean, 0.0))


def cross_decile_analysis(
    assignment: DecileAssignment,
    table: ReturnsTable,
    utilities: list[UtilitySpec],
    min_overlap: int = MIN_OBSERVATIONS,
) -> list[CrossDecileCell]:
    """Agreement table over (decile-1 stock, decile-k stock) MV pairs.

    A pair qualifies when the overlapping histories span at least
    ``min_overlap`` periods and the decile-1 stock strictly satisfies the
    MV rule on those overlapping moments (as :func:`mvc_test` decides it).
    Agreement per utility is the weak expected-utility inequality; pairs
    whose returns breach a utility's clamping budget are excluded from
    that utility's cell only.

    All pairs are evaluated together as masked matrix products over the
    panel.  With M the 0/1 mask of present months, the overlap counts are
    M1ᵀM (M1: the decile-1 columns).  Overlap means and divide-by-n
    variances come from sums of r and r² over each overlap.  The returns
    are not shifted: a per-ticker shift would break exact ties between
    tickers whose returns agree only over their overlap, and the one-pass
    variance loses about log10(1 + mean²/var) digits, nothing for returns,
    whose monthly mean is small against their spread.  The values of U
    come from :func:`~mvlab.utilities.clamped_panel`, one clamp per domain
    edge and one transform per family and edge.  Per utility, one product
    of sign * U(clip(r)) per side gives the expected utilities up to that
    sign, which is applied to the sums (negation is exact).  Per domain
    edge where any draw is clamped, one product of the clamp indicator per
    side gives the clamp counts.
    """
    if min_overlap < 1:
        raise ParameterError(f"min_overlap must be >= 1, got {min_overlap}")
    utilities = list(utilities)
    columns = [table.column_of[t] for block in assignment.deciles for t in block]
    bounds = np.cumsum([0] + [len(block) for block in assignment.deciles])
    d1 = len(assignment.deciles[0])
    returns = table.returns[:, columns]
    present = ~np.isnan(returns)
    mask = present.astype(float)
    # missing months hold 0, which lies inside every utility's domain
    raw = np.where(present, returns, 0.0)
    mask_1 = mask[:, :d1].T
    n = mask_1 @ mask
    n_safe = np.maximum(n, 1.0)

    def overlap_sums(a: np.ndarray):
        """Sums of ``a`` over each pair's overlapping months: the decile-1
        stock's and its partner's.  Both are products of one shape, so
        columns that are equal (or negated) over an overlap give bit-equal
        (or negated) sums, and exact MV ties stay ties."""
        return a[:, :d1].T @ mask, mask_1 @ a

    def per_decile(flags: np.ndarray) -> np.ndarray:
        """Number of set flags in each decile's block of partner columns."""
        cum = np.concatenate(([0], np.cumsum(flags.sum(axis=0))))
        return cum[bounds[1:]] - cum[bounds[:-1]]

    (sum_1, sum_2), (sq_1, sq_2) = overlap_sums(raw), overlap_sums(raw * raw)
    mean_1, std_1 = _mean_std(sum_1, sq_1, n_safe)
    mean_2, std_2 = _mean_std(sum_2, sq_2, n_safe)
    del sum_1, sum_2, sq_1, sq_2
    mv = (
        (n >= min_overlap)
        & ((mean_1 >= mean_2) & (std_1 <= std_2))
        & ~((mean_2 >= mean_1) & (std_2 <= std_1))
    )
    mv[np.arange(d1), np.arange(d1)] = False  # a stock is never its own partner
    del mean_1, std_1, mean_2, std_2

    n_eval = {u.identifier: 0 for u in utilities}
    n_agree = dict(n_eval)
    over_budget: dict[float, np.ndarray] = {}
    for u, sign, values, clamped in clamped_panel(raw, utilities):
        values *= mask
        evaluable = mv
        if clamped is not None:
            lo = u.domain_min
            if lo not in over_budget:
                clamped_1, clamped_2 = overlap_sums(clamped.astype(float))
                over_budget[lo] = (
                    over_clamp_budget(clamped_1, n) | over_clamp_budget(clamped_2, n)
                )
                del clamped_1, clamped_2
            evaluable = mv & ~over_budget[lo]
        eu_1, eu_2 = overlap_sums(values)
        agree = evaluable & (sign * eu_1 / n_safe >= sign * eu_2 / n_safe)
        n_eval[u.identifier] = n_eval[u.identifier] + per_decile(evaluable)
        n_agree[u.identifier] = n_agree[u.identifier] + per_decile(agree)
        del evaluable, eu_1, eu_2, agree

    n_pairs = per_decile(mv)
    cells = []
    for k in range(len(assignment.deciles)):
        evaluated = {uid: int(counts[k]) for uid, counts in n_eval.items()}
        cells.append(
            CrossDecileCell(
                decile=k + 1,
                n_mv_pairs=int(n_pairs[k]),
                n_evaluated=evaluated,
                success_pct={
                    uid: 100.0 * int(n_agree[uid][k]) / count
                    for uid, count in evaluated.items()
                    if count > 0
                },
            )
        )
    return cells
