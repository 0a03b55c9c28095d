"""Deterministic random-stream derivation.

All randomness in the package flows through one 64-bit master seed.
Each purpose (a scenario pair, a retry attempt, a test corpus) derives
its own independent stream from ``(master_seed, *path)``, so adding new
purposes never perturbs the draws of existing ones.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ParameterError

SEED_BOUND = 1 << 64


def as_int(name: str, value) -> int:
    """``value`` as a Python int; ParameterError unless it is an integer
    (a Python or NumPy int, never a float or a string)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


def spawn_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Child generator keyed by the master seed and an integer path.

    The same ``(master_seed, *path)`` always yields the same stream;
    distinct paths yield statistically independent streams.  Every word
    must be an integer in [0, 2**64), so no two seeds name one stream.
    """
    words = [as_int("seed word", word) for word in (master_seed, *path)]
    if not all(0 <= word < SEED_BOUND for word in words):
        raise ParameterError(f"seed words must lie in [0, 2**64), got {words}")
    return np.random.default_rng(np.random.SeedSequence(words))
