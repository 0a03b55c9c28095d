"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed writes
byte-identical files, and the program under test sees only those files
and its argv.  Sizes are fixed per workload so that a seed changes the
data, not the amount of work.
"""

from __future__ import annotations

import os

import numpy as np

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

# Desk scale: one cell per family at n_obs = 20,000.  The stable cell keeps
# the default grid's skew band, so its pairs go through the accept/reject
# loop (about 10 attempts per pair).  It has only 2 pairs because the number
# of attempts is geometric: it is the main source of seed-to-seed spread in
# the round time.
DESK_N_OBS = 20_000
DESK_CELLS = (
    # (id, family, mean_ratio, std_ratio, skew_ratio, base mean, std, skew, n_pairs)
    ("normal", "normal", "1.05", "1.05", None, 0.01, 0.008, None, 90),
    ("laplace", "laplace", "1.05", "1.05", None, 0.01, 0.008, None, 90),
    ("skew_normal", "skew_normal", "1.05", "1.05", "3", 0.01, 0.0235, 0.33, 90),
    ("gev", "gev", "1.05", "1.05", "3", 0.01, 0.16, 0.35, 60),
    ("stable", "stable", "1.1..1.3", "1.1..1.3", "1.5..3", 0.01, 0.03, 0.2, 2),
)

# Paper scale: the same families at n_obs = 100,000, several cells with few
# pairs each, so a pool is started and drained per cell.  The stable band has
# no skew ratio: with one, a cell's time is set by a handful of geometric
# attempt counts and the seed-to-seed spread exceeds any useful bound.
PAPER_N_OBS = 100_000
PAPER_CELLS_PER_FAMILY = 4
PAPER_N_PAIRS = 4
PAPER_CELLS = (
    ("normal", "normal", "1.05", "1.05", None, 0.01, 0.008, None),
    ("laplace", "laplace", "1.05", "1.05", None, 0.01, 0.008, None),
    ("skew_normal", "skew_normal", "1.05", "1.05", "3", 0.01, 0.0235, 0.33),
    ("gev", "gev", "1.05", "1.05", "3", 0.01, 0.16, 0.35),
    ("stable", "stable", "1.1..1.3", "1.1..1.3", None, 0.01, 0.03, None),
)

# Returns panel: tickers x months, about 5% of cells missing, and a few
# late listings with fewer than the 24 months the loader requires.
PANEL_TICKERS = 300
PANEL_MONTHS = 360
PANEL_MISSING = 0.05
PANEL_LATE_LISTINGS = 6
PANEL_DECILES = 10
PANEL_DESIGN_SEED = 20_221_102

# Lottery sizes for the compare batch, 10^3 to 10^5 outcomes, and the
# relation each pair is built to have.
LOTTERY_PAIRS = (
    (1_000, "shift"),
    (3_000, "spread"),
    (10_000, "independent"),
    (30_000, "shift"),
    (100_000, "spread"),
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _cell_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**62))


def _cell_lines(cell_id, family, mean_r, std_r, skew_r, mean, std, skew, n_obs, n_pairs, seed):
    lines = [
        f"[{cell_id}]",
        f"family = {family}",
        f"mean_ratio = {mean_r}",
        f"std_ratio = {std_r}",
    ]
    if skew_r is not None:
        lines.append(f"skew_ratio = {skew_r}")
    lines += [f"base_mean = {mean}", f"base_std = {std}"]
    if skew is not None:
        lines.append(f"base_skew = {skew}")
    lines += [f"n_obs = {n_obs}", f"n_pairs = {n_pairs}", f"seed = {seed}", ""]
    return lines


def desk_config(seed: int) -> str:
    """INI text for ``simulate_desk``."""
    rng = _rng(seed, 1)
    lines = []
    for *cell, n_pairs in DESK_CELLS:
        lines += _cell_lines(*cell, DESK_N_OBS, n_pairs, _cell_seed(rng))
    return "\n".join(lines)


def paper_config(seed: int) -> str:
    """INI text for ``simulate_paper_pool``."""
    rng = _rng(seed, 2)
    lines = []
    for k in range(PAPER_CELLS_PER_FAMILY):
        for cell_id, *rest in PAPER_CELLS:
            lines += _cell_lines(
                f"{cell_id}_{k + 1}", *rest, PAPER_N_OBS, PAPER_N_PAIRS, _cell_seed(rng)
            )
    return "\n".join(lines)


def returns_panel_csv(seed: int) -> str:
    """Monthly returns CSV: skew-normal tickers with mixed skewness signs.

    Each ticker's column is a fixed design, drawn from the seed-independent
    stream ``PANEL_DESIGN_SEED``: skew-normal shapes on an even grid, within
    every decile-sized block of shapes means and volatilities that each
    cover their whole range once, and about 5% blank months.  A few design
    columns are late listings, blank before their last 6 to 19 months, which
    the loader drops.  The seed decides which ticker name gets which design
    column, the order of each column's months (blanks included) and how late
    the late listings start.  A ticker's own sample moments do not depend on
    the order of its months, so the decile assignment is the same for every
    seed, and the number of MV pairs, which sets much of the analysis time,
    moves with the seed only through which months two tickers share.
    """
    design = _rng(PANEL_DESIGN_SEED, 3)
    n, t = PANEL_TICKERS, PANEL_MONTHS
    block = n // PANEL_DECILES
    k = np.arange(n) % block
    shape = np.linspace(-6.0, 6.0, n)
    mean = 0.002 + 0.018 * (k + 0.5) / block
    vol = 0.03 + 0.09 * ((7 * k) % block + 0.5) / block
    delta = shape / np.sqrt(1.0 + shape * shape)
    m = delta * np.sqrt(2.0 / np.pi)
    omega = vol / np.sqrt(1.0 - m * m)
    xi = mean - omega * m
    z = delta * np.abs(design.standard_normal((t, n))) + np.sqrt(1.0 - delta * delta) * design.standard_normal((t, n))
    design_returns = np.maximum(xi + omega * z, -0.95)
    design_returns[design.random((t, n)) < PANEL_MISSING] = np.nan
    late_design = design.choice(n, PANEL_LATE_LISTINGS, replace=False)

    rng = _rng(seed, 3)
    order = rng.permutation(n)
    returns = rng.permuted(design_returns[:, order], axis=0)
    missing = np.isnan(returns)
    for j in np.flatnonzero(np.isin(order, late_design)):
        missing[: t - int(rng.integers(6, 20)), j] = True
    lines = ["date," + ",".join(f"T{j:04d}" for j in range(n))]
    for i in range(t):
        year, month = 1990 + i // 12, i % 12 + 1
        cells = ("" if missing[i, j] else f"{returns[i, j]:.6f}" for j in range(n))
        lines.append(f"{year:04d}-{month:02d}-28," + ",".join(cells))
    return "\n".join(lines) + "\n"


def _probabilities(rng: np.random.Generator, n: int) -> np.ndarray:
    p = rng.uniform(0.5, 1.5, n)
    p /= p.sum()
    return p


def lottery_pair(seed: int, index: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """((values_a, probs_a), (values_b, probs_b)) for compare pair ``index``.

    ``shift`` moves every outcome of A up (A is FSD-dominated by B);
    ``spread`` splits each atom of A symmetrically (A SSD-dominates B);
    ``independent`` draws B from another skewed law (usually no dominance).
    """
    size, kind = LOTTERY_PAIRS[index]
    rng = _rng(seed, 100 + index)
    values_a = rng.gamma(2.0, 0.05, size) - 0.05
    probs_a = _probabilities(rng, size)
    if kind == "shift":
        values_b = values_a + rng.uniform(0.0, 0.02, size)
        probs_b = probs_a.copy()
    elif kind == "spread":
        d = rng.uniform(0.001, 0.05, size)
        values_b = np.concatenate([values_a - d, values_a + d])
        probs_b = np.concatenate([probs_a, probs_a]) / 2.0
    else:
        values_b = 0.1 - rng.gamma(3.0, 0.04, size)
        probs_b = _probabilities(rng, size)
    return (values_a, probs_a), (values_b, probs_b)


def lottery_csv(values: np.ndarray, probs: np.ndarray) -> str:
    lines = ["value,probability"]
    lines += [f"{v!r},{p!r}" for v, p in zip(values.tolist(), probs.tolist())]
    return "\n".join(lines) + "\n"


def write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


def write_inputs(workload: str, seed: int, directory: str) -> dict:
    """Write one workload's input files into ``directory``; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    if workload == "simulate_desk":
        return {"config": write(os.path.join(directory, "cells.ini"), desk_config(seed))}
    if workload == "simulate_paper_pool":
        return {"config": write(os.path.join(directory, "cells.ini"), paper_config(seed))}
    if workload == "deciles_panel":
        return {"returns": write(os.path.join(directory, "panel.csv"), returns_panel_csv(seed))}
    if workload == "compare_batch":
        pairs = []
        for i in range(len(LOTTERY_PAIRS)):
            (va, pa), (vb, pb) = lottery_pair(seed, i)
            a = write(os.path.join(directory, f"pair{i}_a.csv"), lottery_csv(va, pa))
            b = write(os.path.join(directory, f"pair{i}_b.csv"), lottery_csv(vb, pb))
            pairs.append((a, b))
        return {"pairs": pairs}
    raise ValueError(f"unknown workload {workload!r}")
