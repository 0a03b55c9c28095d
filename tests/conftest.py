"""Shared fixtures: the worked-example lotteries, the seeded
random-lottery-pair corpus used by the dominance property suite, and the
printed tables' rounding rule."""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal

import numpy as np
import pytest

from mvlab.dominance import DiscreteLottery
from mvlab.rng import spawn_rng

CORPUS_SEED = 424242


def round_half_away_from_zero(x: float, ndigits: int = 2) -> float:
    """Decimal rounding with ties away from zero (printed-table convention).

    The value is first quantized to 10 decimals so that binary noise in
    an exact-decimal tie (e.g. 0.655 evaluating to 0.6549999999999999)
    does not flip the tie direction.
    """
    cleaned = Decimal(repr(float(x))).quantize(
        Decimal(1).scaleb(-10), rounding=ROUND_HALF_UP
    )
    exp = Decimal(1).scaleb(-ndigits)
    return float(cleaned.quantize(exp, rounding=ROUND_HALF_UP))


def _random_lottery(rng: np.random.Generator) -> DiscreteLottery:
    size = int(rng.integers(2, 7))
    values = np.round(rng.uniform(0.0, 20.0, size), 2)
    values = np.unique(values)
    while values.size < 2:
        values = np.unique(np.round(rng.uniform(0.0, 20.0, size), 2))
    probs = rng.dirichlet(np.ones(values.size))
    while np.any(probs <= 1e-9):
        probs = rng.dirichlet(np.ones(values.size))
    return DiscreteLottery(values, probs)


def _mean_preserving_spread(lottery: DiscreteLottery, rng: np.random.Generator):
    """Split one atom symmetrically; the original SSD-dominates the result."""
    j = int(rng.integers(0, lottery.values.size))
    d = float(rng.uniform(0.05, 1.5))
    values = list(lottery.values)
    probs = list(lottery.probs)
    v, p = values.pop(j), probs.pop(j)
    values += [v - d, v + d]
    probs += [p / 2.0, p / 2.0]
    return DiscreteLottery(np.array(values), np.array(probs))


def random_lottery_pairs(n_pairs: int, master_seed: int = CORPUS_SEED):
    """Seeded corpus mixing related pairs (shift, spread, identical) with
    independent ones so dominance branches actually occur."""
    pairs = []
    for i in range(n_pairs):
        rng = spawn_rng(master_seed, 7, i)
        first = _random_lottery(rng)
        kind = i % 5
        if kind == 0:
            second = first.affine(1.0, -float(rng.uniform(0.05, 2.0)))
        elif kind == 1:
            second = _mean_preserving_spread(first, rng)
        elif kind == 2:
            second = DiscreteLottery(first.values.copy(), first.probs.copy())
        else:
            second = _random_lottery(rng)
        pairs.append((first, second))
    return pairs


@pytest.fixture(scope="session")
def lottery_corpus():
    return random_lottery_pairs(500)


@pytest.fixture
def table12_lotteries():
    z1 = DiscreteLottery.from_pairs([(5, 0.4), (10, 0.6)])
    z2 = DiscreteLottery.from_pairs([(10, 0.4), (20, 0.6)])
    return z1, z2


@pytest.fixture
def table3_lotteries():
    f = DiscreteLottery.from_pairs([(5, 0.8), (30, 0.2)])
    g = DiscreteLottery.from_pairs([(7, 0.99), (150, 0.01)])
    return f, g
