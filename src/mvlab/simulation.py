"""Monte Carlo MV-pair experiments.

A scenario cell fixes a distribution family, mean/std (and optionally
skewness) ratios between two lotteries, base moment levels, and sample
sizes.  For each pair the first lottery is constructed to satisfy the
mean-variance rule against the second on *sample* moments; the cell then
reports, per utility, the percentage of pairs where the MV-dominant
lottery also has the higher sample expected utility.

Seeding: every attempt of every pair derives its streams from
``(master_seed, stream_id, pair_index, attempt)``, so results are
bit-identical across runs and across worker counts.
"""

from __future__ import annotations

import configparser
import contextlib
import ctypes
import logging
import math
import os
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice, repeat

import numpy as np

from .distributions import (
    Family,
    MomentSummary,
    MomentTarget,
    StableParams,
    moments,
    sample_with_rng,
    solve_params_for_moments,
)
from .dominance import satisfies_mv
from .errors import DomainError, GenerationError, ParameterError, UsageError
from .rng import spawn_rng
from .utilities import (
    Expansion,
    UtilitySpec,
    expected_quadratic,
    expected_utility,
    panel_expected_utility,
)
# ``sample_expected_utility`` is not called here; it stays a module attribute
# because bench/tracing.py wraps it at this module.
from .utilities import sample_expected_utility

log = logging.getLogger(__name__)

SOLVABLE_ATTEMPT_CAP = 100
STABLE_ATTEMPT_CAP = 10_000

DESK_N_OBS = 20_000
DESK_N_PAIRS = 200
PAPER_N_OBS = 100_000
PAPER_N_PAIRS = 1_000

# Stream identifiers for per-pair seed derivation.
_STREAM_PARAMS = 1
_STREAM_Z1 = 2
_STREAM_Z2 = 3

# Proposal windows for the stable family: the stability/skew parameters
# are drawn per attempt, locations and scales are then set from realized
# sample moments so the ratio bands hold on sample statistics.
STABLE_STABILITY_WINDOW = (1.7, 1.9)
STABLE_SKEW_1_WINDOW = (0.2, 0.5)
STABLE_SKEW_2_WINDOW = (0.7, 1.0)

Interval = tuple[float, float]


def _as_interval(value) -> Interval:
    if value is None:
        raise ParameterError("ratio must not be None")
    if isinstance(value, (int, float)):
        value = (value, value)
    lo, hi = float(value[0]), float(value[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"ratio bounds must be finite, got {lo}, {hi}")
    if hi < lo:
        raise ParameterError(f"interval upper bound {hi} below lower bound {lo}")
    return (lo, hi)


def _draw(interval: Interval, rng: np.random.Generator) -> float:
    lo, hi = interval
    return lo if lo == hi else float(rng.uniform(lo, hi))


def format_interval(interval: Interval | None) -> str:
    if interval is None:
        return ""
    lo, hi = interval
    return f"{lo:g}" if lo == hi else f"{lo:g}..{hi:g}"


@dataclass(frozen=True)
class ScenarioSpec:
    """One Monte Carlo cell.  Ratios may be points or (lo, hi) intervals;
    lottery 1 is always the MV-dominant one, so every ratio is >= 1.

    ``base`` anchors the moment levels: lottery 2 takes the base mean and
    std; the base skewness is lottery 1's level and lottery 2 is scaled
    up by the skew ratio (the dominated lottery is the more skewed one).
    """

    scenario_id: str
    family: Family
    mean_ratio: float | Interval
    std_ratio: float | Interval
    base: MomentTarget
    n_obs: int
    n_pairs: int
    master_seed: int
    skew_ratio: float | Interval | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "mean_ratio", _as_interval(self.mean_ratio))
        object.__setattr__(self, "std_ratio", _as_interval(self.std_ratio))
        if self.skew_ratio is not None:
            object.__setattr__(self, "skew_ratio", _as_interval(self.skew_ratio))
        for name in ("mean_ratio", "std_ratio", "skew_ratio"):
            value = getattr(self, name)
            if value is not None and value[0] < 1.0:
                raise ParameterError(f"{name} must be >= 1, got {value[0]}")
        if self.n_obs < 1_000:
            raise ParameterError(f"n_obs must be >= 1000, got {self.n_obs}")
        if self.n_pairs < 1:
            raise ParameterError(f"n_pairs must be >= 1, got {self.n_pairs}")
        needs_base_skew = self.family is Family.GEV or (
            self._needs_skew() and self.skew_ratio is not None
        )
        if needs_base_skew and self.base.skewness is None:
            raise ParameterError(
                f"{self.family.value} scenarios need a base skewness"
            )

    def _needs_skew(self) -> bool:
        return self.family not in (Family.NORMAL, Family.LAPLACE)


@dataclass(frozen=True)
class PairOutcome:
    pair_index: int
    sample_moments_1: MomentSummary
    sample_moments_2: MomentSummary
    per_utility_agreement: dict[str, bool]


@dataclass(frozen=True)
class ScenarioReport:
    spec: ScenarioSpec
    success_pct: dict[str, float]
    n_pairs_run: int
    n_regenerations: int
    diagnostics: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Pair generation
# ---------------------------------------------------------------------------


def _solvable_targets(
    spec: ScenarioSpec, rng: np.random.Generator
) -> tuple[MomentTarget, MomentTarget]:
    r_mean = _draw(spec.mean_ratio, rng)
    r_std = _draw(spec.std_ratio, rng)
    if spec._needs_skew() and spec.skew_ratio is not None:
        skew_1 = spec.base.skewness
        skew_2 = _draw(spec.skew_ratio, rng) * skew_1
    else:
        skew_1 = skew_2 = spec.base.skewness if spec._needs_skew() else None
    target_1 = MomentTarget(spec.base.mean * r_mean, spec.base.std / r_std, skew_1)
    target_2 = MomentTarget(spec.base.mean, spec.base.std, skew_2)
    return target_1, target_2


def _solve_ratio_ends(spec: ScenarioSpec) -> None:
    """Solve a solvable cell's targets with its ratios at either end of their
    intervals, so an infeasible one fails before any pair runs.  The ends
    suffice: targets are monotone in the ratios, feasible skewnesses an interval."""
    if spec.family is not Family.STABLE:
        for end in (0, 1):
            point = replace(spec, mean_ratio=spec.mean_ratio[end], std_ratio=spec.std_ratio[end],
                            skew_ratio=spec.skew_ratio and spec.skew_ratio[end])
            for target in _solvable_targets(point, None):  # a point interval draws nothing
                solve_params_for_moments(spec.family, target)


def _attempt_solvable(spec: ScenarioSpec, pair_index: int, attempt: int):
    rng = spawn_rng(spec.master_seed, _STREAM_PARAMS, pair_index, attempt)
    target_1, target_2 = _solvable_targets(spec, rng)
    params_1 = solve_params_for_moments(spec.family, target_1)
    params_2 = solve_params_for_moments(spec.family, target_2)
    z1 = sample_with_rng(
        params_1, spec.n_obs, spawn_rng(spec.master_seed, _STREAM_Z1, pair_index, attempt)
    )
    z2 = sample_with_rng(
        params_2, spec.n_obs, spawn_rng(spec.master_seed, _STREAM_Z2, pair_index, attempt)
    )
    return z1, z2


def _attempt_stable(spec: ScenarioSpec, pair_index: int, attempt: int):
    """One stable candidate (z1, z2), or None when rejected.

    Standardized noise is drawn for both lotteries, then location/scale
    are set from realized sample moments so the mean and std ratios land
    exactly on the drawn targets; the candidate is rejected when sample
    skewnesses miss the skew band (sample skewness is affine-invariant,
    so it cannot be steered the same way).
    """
    rng = spawn_rng(spec.master_seed, _STREAM_PARAMS, pair_index, attempt)
    r_mean = _draw(spec.mean_ratio, rng)
    r_std = _draw(spec.std_ratio, rng)
    stability = float(rng.uniform(*STABLE_STABILITY_WINDOW))
    beta_1 = float(rng.uniform(*STABLE_SKEW_1_WINDOW))
    beta_2 = float(rng.uniform(*STABLE_SKEW_2_WINDOW))
    noise_1 = sample_with_rng(
        StableParams(stability, beta_1, 1.0, 0.0),
        spec.n_obs,
        spawn_rng(spec.master_seed, _STREAM_Z1, pair_index, attempt),
    )
    noise_m1 = moments(noise_1)
    banded, skew_1 = spec.skew_ratio is not None, noise_m1.skewness
    if banded and skew_1 <= 0.0:
        return None  # before Z2 is drawn: it has its own stream, so no draw moves
    noise_2 = sample_with_rng(
        StableParams(stability, beta_2, 1.0, 0.0),
        spec.n_obs,
        spawn_rng(spec.master_seed, _STREAM_Z2, pair_index, attempt),
    )
    if banded:
        skew_2 = moments(noise_2).skewness
        lo, hi = spec.skew_ratio
        if skew_2 <= 0.0 or not lo <= skew_2 / skew_1 <= hi:
            return None
    scale_2 = spec.base.std / math.sqrt(2.0)
    z2 = spec.base.mean + scale_2 * noise_2
    m2 = moments(z2)
    if m2.mean <= 0.0 or m2.std == 0.0 or noise_m1.std == 0.0:
        return None
    scale_1 = m2.std / (r_std * noise_m1.std)
    location_1 = r_mean * m2.mean - scale_1 * noise_m1.mean
    z1 = location_1 + scale_1 * noise_1
    return z1, z2


def _accepted_pair(spec: ScenarioSpec, utilities, pair_index: int):
    """The pair-attempt loop: (z1, z2, agreement, attempt) for the first
    attempt that :func:`evaluate_pair` accepts.  Every rejected attempt
    (stable rejection, MV miss, clamp breach) advances to a fresh derived
    attempt, so the accepted index counts the regenerations."""
    stable = spec.family is Family.STABLE
    attempt_pair = _attempt_stable if stable else _attempt_solvable
    cap = STABLE_ATTEMPT_CAP if stable else SOLVABLE_ATTEMPT_CAP
    for attempt in range(cap):
        candidate = attempt_pair(spec, pair_index, attempt)
        if candidate is None:
            continue
        try:
            outcome = evaluate_pair(candidate, utilities, pair_index)
        except (ParameterError, DomainError):
            continue
        return *candidate, outcome.per_utility_agreement, attempt
    raise GenerationError(
        f"scenario {spec.scenario_id!r}: pair {pair_index} exceeded the "
        f"{cap}-attempt generation cap"
    )


def generate_mv_pair(spec: ScenarioSpec, pair_index: int) -> tuple[np.ndarray, np.ndarray]:
    """The accepted (Z1, Z2) samples for one pair index."""
    z1, z2, _, _ = _accepted_pair(spec, (), pair_index)
    return z1, z2


def _run_pair(spec: ScenarioSpec, utilities: tuple[UtilitySpec, ...], pair_index: int):
    """(agreement, regenerations) for one pair; the pool maps this so no sample is pickled."""
    _, _, agreement, attempt = _accepted_pair(spec, utilities, pair_index)
    return agreement, attempt


# ---------------------------------------------------------------------------
# Pair evaluation
# ---------------------------------------------------------------------------


def evaluate_pair(
    pair: tuple[np.ndarray, np.ndarray],
    utilities: list[UtilitySpec],
    pair_index: int = 0,
) -> PairOutcome:
    """Per-utility agreement flags for one MV pair.

    Agreement is the weak inequality E[U(Z1)] >= E[U(Z2)] (ties agree).
    Raises ParameterError when the pair violates the MV ordering and
    DomainError when any utility's clamping budget is exceeded.
    """
    z1, z2 = pair
    m1, m2 = moments(z1), moments(z2)
    if not satisfies_mv(m1, m2):
        raise ParameterError(
            f"pair {pair_index} violates the MV ordering: "
            f"means {m1.mean:.6g}/{m2.mean:.6g}, stds {m1.std:.6g}/{m2.std:.6g}"
        )
    eu1 = panel_expected_utility(z1, utilities)
    eu2 = panel_expected_utility(z2, utilities)
    return PairOutcome(
        pair_index=pair_index,
        sample_moments_1=m1,
        sample_moments_2=m2,
        per_utility_agreement={
            utility.identifier: bool(u1 >= u2)
            for utility, (u1, _), (u2, _) in zip(utilities, eu1, eu2)
        },
    )


def run_scenario(
    spec: ScenarioSpec,
    utilities: list[UtilitySpec],
    workers: int = 1,
    results: Iterator[tuple[dict[str, bool], int]] | None = None,
) -> ScenarioReport:
    """Run every pair of the cell and aggregate per-utility success rates.

    On its own this is the one-cell case of :func:`run_scenarios`: the
    cell's pairs are mapped over :func:`pair_results`, so the pool is
    capped at ``min(workers, os.cpu_count(), spec.n_pairs)`` processes,
    and there is no pool at all when that cap is 1.  Inside a run,
    ``results`` is the run's shared :func:`pair_results` iterator,
    positioned at this cell's first pair; the cell takes its
    ``spec.n_pairs`` results from it and ``workers`` is not used.  The
    result is bit-identical for a fixed spec regardless of ``workers``:
    pair streams depend only on (master_seed, pair_index, attempt) and
    aggregation is exact integer counting in index order.
    """
    utilities = list(utilities)
    if spec.skew_ratio is not None and not spec._needs_skew():
        log.info(
            "scenario %s: %s is symmetric, skew ratio ignored",
            spec.scenario_id,
            spec.family.value,
        )
    if results is None:
        with pair_results([spec], utilities, workers) as own:
            return _scenario_report(spec, utilities, own)
    return _scenario_report(spec, utilities, islice(results, spec.n_pairs))


def run_scenarios(
    specs: list[ScenarioSpec],
    utilities: list[UtilitySpec],
    workers: int = 1,
) -> Iterator[ScenarioReport]:
    """Yield one :class:`ScenarioReport` per cell, in ``specs`` order, each
    as soon as the cell's last pair is in.

    All cells share one :func:`pair_results` pool, so no cell waits for
    the tail of the one before it.  An empty ``utilities`` raises
    :class:`ParameterError` here, not at the first report.
    """
    specs, utilities = list(specs), list(utilities)
    _require_utilities(utilities)
    return _shared_pool_reports(specs, utilities, workers)


def _shared_pool_reports(specs, utilities, workers) -> Iterator[ScenarioReport]:
    with pair_results(specs, utilities, workers) as results:
        for spec in specs:
            yield run_scenario(spec, utilities, results=results)


@contextlib.contextmanager
def pair_results(
    specs: list[ScenarioSpec],
    utilities: list[UtilitySpec],
    workers: int = 1,
) -> Iterator[Iterator[tuple[dict[str, bool], int]]]:
    """Map every (cell, pair_index) of a run over one process pool.

    Yields an iterator over the (per-utility agreement, regenerations)
    result of every pair, cell by cell in ``specs`` order and by pair
    index within a cell.  The pool has ``min(workers, os.cpu_count(),
    total pairs)`` processes; when that is 1 the pairs run in this
    process as they are read.  On leaving the block the queued tasks
    are cancelled before the pool shuts down, so when a pair raises (a
    :class:`GenerationError` at the attempt cap, or any other error)
    the later cells' pairs are not run.
    """
    utilities = tuple(utilities)
    _require_utilities(utilities)
    pair_specs = [spec for spec in specs for _ in range(spec.n_pairs)]
    pair_indices = [i for spec in specs for i in range(spec.n_pairs)]
    workers = min(workers, os.cpu_count() or 1, len(pair_specs))
    pool = None
    if workers > 1:
        if any(spec.family is Family.GEV for spec in specs):
            # GEV solves need mpmath; loaded once here, every forked worker
            # starts with it instead of importing it on its first solve.
            import mpmath  # noqa: F401
        pool = ProcessPoolExecutor(max_workers=workers, initializer=keep_freed_memory)
    try:
        # One pair per task: pairs of different cells differ up to tenfold
        # in cost, so multi-pair chunks leave a worker idle at the end.
        yield (pool.map if pool else map)(
            _run_pair, pair_specs, repeat(utilities), pair_indices
        )
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


# glibc's mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_freed_memory() -> None:
    """Keep freed sample arrays in this process's heap.

    By default glibc serves each sample-sized temporary (800 kB at
    100,000 draws) with its own mmap, or trims the heap top when it is
    freed, so every pair faults its arrays in from fresh pages again; at
    paper scale that was a fifth of the pool's time, in the kernel.
    Raising the mmap threshold to its 64-bit maximum and the trim
    threshold above it lets the next pair reuse the same pages.  Both are
    needed: a trim threshold alone switches off glibc's dynamic mmap
    threshold.  The ``mvlab`` command calls this once per command, and
    pool workers call it as their initializer; a library run in the
    caller's process leaves the allocator alone.  A no-op where the C
    library has no ``mallopt`` (musl, macOS).
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 * 1024 * 1024)
    mallopt(_M_TRIM_THRESHOLD, 256 * 1024 * 1024)


def _require_utilities(utilities) -> None:
    if not utilities:
        raise ParameterError("a scenario run needs at least one utility")


def _scenario_report(spec: ScenarioSpec, utilities, results) -> ScenarioReport:
    counts = {u.identifier: 0 for u in utilities}
    regenerations = 0
    diagnostics: list[str] = []
    surface_disagreements = (
        spec.family in (Family.NORMAL, Family.LAPLACE) and spec.n_obs >= 100_000
    )
    for pair_index, (agreement, regens) in enumerate(results):
        regenerations += regens
        for uid, agreed in agreement.items():
            if agreed:
                counts[uid] += 1
            elif surface_disagreements:
                note = (
                    f"symmetric-family disagreement: scenario {spec.scenario_id}, "
                    f"pair {pair_index}, utility {uid}"
                )
                diagnostics.append(note)
                log.warning("%s", note)
    success = {uid: 100.0 * counts[uid] / spec.n_pairs for uid in counts}
    return ScenarioReport(
        spec=spec,
        success_pct=success,
        n_pairs_run=spec.n_pairs,
        n_regenerations=regenerations,
        diagnostics=tuple(diagnostics),
    )


# ---------------------------------------------------------------------------
# Levy-Markowitz correlation diagnostic
# ---------------------------------------------------------------------------


def correlation_study(
    samples,
    spec: UtilitySpec,
    mode: Expansion = Expansion.AROUND_MEAN,
) -> float:
    """Pearson correlation, across sample lotteries, between the exact
    expected utility and the expected quadratic approximation evaluated
    at each lottery's sample mean and variance."""
    samples = list(samples)
    if len(samples) < 3:
        raise ParameterError(f"correlation study needs >= 3 lotteries, got {len(samples)}")
    exact = np.empty(len(samples))
    approx = np.empty(len(samples))
    for i, s in enumerate(samples):
        exact[i] = expected_utility(s, spec)
        m = moments(s)
        approx[i] = expected_quadratic(spec, m.mean, m.std**2, mode)
    if np.std(exact) == 0.0 or np.std(approx) == 0.0:
        raise ParameterError("correlation undefined: a series has zero variance")
    return float(np.corrcoef(exact, approx)[0, 1])


# ---------------------------------------------------------------------------
# Default scenario grid
# ---------------------------------------------------------------------------

# Base moment anchors, per family.  At the desk-scale observation count
# the per-pair expected-utility noise is 2.2x the level behind the
# reference percentages, so each family's dispersion is calibrated so the
# benchmark cells discriminate the same way at this scale: symmetric
# families small enough that the mean advantage dominates noise for the
# harshest utilities, the skewed families at the level where the
# risk-aversion crossover sits inside the benchmark's utility panel.
DEFAULT_SYMMETRIC_BASE = MomentTarget(mean=0.01, std=0.008)
DEFAULT_SKEW_NORMAL_BASE = MomentTarget(mean=0.01, std=0.0235, skewness=0.33)
DEFAULT_GEV_BASE = MomentTarget(mean=0.01, std=0.16, skewness=0.35)
# Heavy stable tails breach the utility clamping budget at larger scales.
DEFAULT_STABLE_BASE = MomentTarget(mean=0.01, std=0.03, skewness=0.2)

DEFAULT_MASTER_SEED = 20240

_STABLE_BANDS = [
    ("stable_wide", (1.3, 1.5), (1.3, 1.5)),
    ("stable_mid", (1.1, 1.3), (1.1, 1.3)),
    ("stable_tight", (1.01, 1.1), (1.01, 1.1)),
]


def default_scenarios(
    master_seed: int = DEFAULT_MASTER_SEED, paper_scale: bool = False
) -> list[ScenarioSpec]:
    """The benchmark grid: two ratio settings for the symmetric families,
    four for the skewed solvable ones, and three ratio bands for the
    stable family."""
    n_obs = PAPER_N_OBS if paper_scale else DESK_N_OBS
    n_pairs = PAPER_N_PAIRS if paper_scale else DESK_N_PAIRS
    scenarios = []
    for family in (Family.NORMAL, Family.LAPLACE):
        for ratio in (1.05, 1.01):
            scenarios.append(
                ScenarioSpec(
                    scenario_id=f"{family.value}_{ratio:g}",
                    family=family,
                    mean_ratio=ratio,
                    std_ratio=ratio,
                    base=DEFAULT_SYMMETRIC_BASE,
                    n_obs=n_obs,
                    n_pairs=n_pairs,
                    master_seed=master_seed,
                )
            )
    for family, base in (
        (Family.SKEW_NORMAL, DEFAULT_SKEW_NORMAL_BASE),
        (Family.GEV, DEFAULT_GEV_BASE),
    ):
        for ratio in (1.05, 1.01):
            for skew_ratio in (1.5, 3.0):
                scenarios.append(
                    ScenarioSpec(
                        scenario_id=f"{family.value}_{ratio:g}_s{skew_ratio:g}",
                        family=family,
                        mean_ratio=ratio,
                        std_ratio=ratio,
                        skew_ratio=skew_ratio,
                        base=base,
                        n_obs=n_obs,
                        n_pairs=n_pairs,
                        master_seed=master_seed,
                    )
                )
    for scenario_id, mean_band, std_band in _STABLE_BANDS:
        scenarios.append(
            ScenarioSpec(
                scenario_id=scenario_id,
                family=Family.STABLE,
                mean_ratio=mean_band,
                std_ratio=std_band,
                skew_ratio=(1.5, 3.0),
                base=DEFAULT_STABLE_BASE,
                n_obs=n_obs,
                n_pairs=n_pairs,
                master_seed=master_seed,
            )
        )
    return scenarios


# ---------------------------------------------------------------------------
# Scenario configuration files
# ---------------------------------------------------------------------------


def _parse_ratio(text: str):
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return (float(lo), float(hi))
    return float(text)


def load_scenario_config(
    path, seed_override: int | None = None, paper_scale: bool = False
) -> list[ScenarioSpec]:
    """Parse an INI scenario file: one section per cell with keys family,
    mean_ratio, std_ratio, base_mean, base_std, n_obs, n_pairs, seed and
    optionally skew_ratio / base_skew.  Intervals use ``lo..hi``.  A cell
    with a target that cannot be solved is a usage error."""
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise UsageError(f"cannot read scenario config {path}: {exc}") from exc
    scenarios = []
    for section in parser.sections():
        cell = parser[section]
        try:
            family = Family(cell["family"].strip().lower())
            skew_ratio = (
                _parse_ratio(cell["skew_ratio"]) if "skew_ratio" in cell else None
            )
            base_skew = float(cell["base_skew"]) if "base_skew" in cell else None
            spec = ScenarioSpec(
                scenario_id=section,
                family=family,
                mean_ratio=_parse_ratio(cell["mean_ratio"]),
                std_ratio=_parse_ratio(cell["std_ratio"]),
                skew_ratio=skew_ratio,
                base=MomentTarget(
                    mean=float(cell["base_mean"]),
                    std=float(cell["base_std"]),
                    skewness=base_skew,
                ),
                n_obs=PAPER_N_OBS if paper_scale else int(cell["n_obs"]),
                n_pairs=PAPER_N_PAIRS if paper_scale else int(cell["n_pairs"]),
                master_seed=(
                    seed_override if seed_override is not None else int(cell["seed"])
                ),
            )
            _solve_ratio_ends(spec)
        except KeyError as exc:
            raise UsageError(f"[{section}] missing key {exc.args[0]!r}") from exc
        except (ValueError, ParameterError, configparser.Error) as exc:
            raise UsageError(f"[{section}] {exc}") from exc
        scenarios.append(spec)
    if not scenarios:
        raise UsageError(f"{path}: no scenario sections found")
    return scenarios


def scenario_config_text(scenarios: list[ScenarioSpec]) -> str:
    """INI text that :func:`load_scenario_config` parses back to the
    same scenario list."""
    lines = []
    for spec in scenarios:
        lines.append(f"[{spec.scenario_id}]")
        lines.append(f"family = {spec.family.value}")
        lines.append(f"mean_ratio = {format_interval(spec.mean_ratio)}")
        lines.append(f"std_ratio = {format_interval(spec.std_ratio)}")
        if spec.skew_ratio is not None:
            lines.append(f"skew_ratio = {format_interval(spec.skew_ratio)}")
        lines.append(f"base_mean = {spec.base.mean:g}")
        lines.append(f"base_std = {spec.base.std:g}")
        if spec.base.skewness is not None:
            lines.append(f"base_skew = {spec.base.skewness:g}")
        lines.append(f"n_obs = {spec.n_obs}")
        lines.append(f"n_pairs = {spec.n_pairs}")
        lines.append(f"seed = {spec.master_seed}")
        lines.append("")
    return "\n".join(lines)
