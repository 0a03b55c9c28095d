"""Span tracing from outside the program.

The wrappers replace public functions at the module attributes where their
callers look them up (``mvlab.simulation.moments``, ``mvlab.cli.run_scenario``,
...), so no program file is edited.  Spans and counters stay in memory and
are turned into per-layer metrics when a round ends.  Worker processes of a
pool inherit the wrappers, but their spans stay in the worker: only
parent-side spans are reported.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

import mvlab.cli
import mvlab.empirical
import mvlab.simulation
from mvlab.errors import DomainError

# Every per-layer metric with its unit and the direction that is better.
# Later changes are judged by these names; keep them stable.
PER_LAYER = {
    "distributions.sample.calls": ("count", "lower"),
    "distributions.sample.draws": ("count", "lower"),
    "distributions.sample.normal.busy_s": ("s", "lower"),
    "distributions.sample.laplace.busy_s": ("s", "lower"),
    "distributions.sample.skew_normal.busy_s": ("s", "lower"),
    "distributions.sample.gev.busy_s": ("s", "lower"),
    "distributions.sample.stable.busy_s": ("s", "lower"),
    "distributions.moments.calls": ("count", "lower"),
    "distributions.moments.elements": ("count", "lower"),
    "distributions.moments.busy_s": ("s", "lower"),
    "distributions.solve.calls": ("count", "lower"),
    "distributions.solve.busy_s": ("s", "lower"),
    "utilities.eu.calls": ("count", "lower"),
    "utilities.eu.elements": ("count", "lower"),
    "utilities.eu.busy_s": ("s", "lower"),
    "utilities.eu.domain_errors": ("count", "lower"),
    "simulation.attempts": ("count", "lower"),
    "simulation.accepted_pairs": ("count", "higher"),
    "simulation.attempts_per_pair": ("attempts/pair", "lower"),
    "simulation.regenerations": ("count", "lower"),
    "simulation.evaluate.calls": ("count", "lower"),
    "simulation.evaluate.busy_s": ("s", "lower"),
    "simulation.evaluate.domain_rejects": ("count", "lower"),
    "simulation.run_scenario.busy_s": ("s", "lower"),
    "simulation.self_s": ("s", "lower"),
    "simulation.pool.starts": ("count", "lower"),
    "simulation.pool.busy_s": ("s", "lower"),
    "empirical.load_returns.busy_s": ("s", "lower"),
    "empirical.build_deciles.busy_s": ("s", "lower"),
    "empirical.cross_decile.busy_s": ("s", "lower"),
    "empirical.cross_decile.self_s": ("s", "lower"),
    "empirical.candidate_pairs": ("count", "higher"),
    "empirical.mv_pairs": ("count", "higher"),
    "empirical.mv_pair_ratio": ("ratio", "higher"),
    "dominance.load_lottery.busy_s": ("s", "lower"),
    "dominance.ecdf.busy_s": ("s", "lower"),
    "dominance.fsd.busy_s": ("s", "lower"),
    "dominance.ssd.busy_s": ("s", "lower"),
    "dominance.tsd.busy_s": ("s", "lower"),
    "dominance.quad.busy_s": ("s", "lower"),
    "dominance.screen.busy_s": ("s", "lower"),
    "dominance.support_points": ("count", "lower"),
    "dominance.mvc.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """In-memory spans (id, parent, request, name, start, end) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = 0

    def begin(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([span_id, parent, self.request, name, time.perf_counter(), None])
        self.stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        self.spans[span_id][5] = time.perf_counter()
        self.stack.remove(span_id)

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self.begin(name)
        try:
            yield
        finally:
            self.end(span_id)

    def busy(self) -> dict[str, float]:
        """Total duration per span name."""
        out = defaultdict(float)
        for _, _, _, name, start, end in self.spans:
            out[name] += end - start
        return out

    def self_time(self) -> dict[str, float]:
        """Per span name: duration minus the time its direct children cover."""
        out = defaultdict(float)
        for _, _, _, name, start, end in self.spans:
            out[name] += end - start
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                out[self.spans[parent][3]] -= end - start
        return out


def _wrap(tracer, func, name=None, before=None, after=None, errors=None):
    """``func`` inside a span; ``name`` may be a function of the arguments."""

    def wrapper(*args, **kwargs):
        span_name = name(*args, **kwargs) if callable(name) else name
        if before:
            before(*args, **kwargs)
        span_id = tracer.begin(span_name)
        try:
            result = func(*args, **kwargs)
        except DomainError:
            if errors:
                tracer.counts[errors] += 1
            raise
        finally:
            tracer.end(span_id)
        if after:
            after(result)
        return result

    return wrapper


def _hooks(tracer: Tracer):
    """(module, attribute, wrapper factory arguments) for every traced call site."""
    c = tracer.counts

    def sample_before(params, n, rng):
        c["sample.calls"] += 1
        c["sample.draws"] += n

    def moments_before(x):
        c["moments.calls"] += 1
        c["moments.elements"] += np.size(x)

    def eu_before(x, spec, *args, **kwargs):
        c["eu.calls"] += 1
        c["eu.elements"] += np.size(x)

    def count(key):
        def before(*args, **kwargs):
            c[key] += 1
        return before

    def scenario_after(report):
        c["accepted_pairs"] += report.n_pairs_run
        c["regenerations"] += report.n_regenerations

    def deciles_after(assignment):
        d1 = len(assignment.deciles[0])
        c["candidate_pairs"] += d1 * sum(len(b) for b in assignment.deciles) - d1

    def cross_after(cells):
        c["mv_pairs"] += sum(cell.n_mv_pairs for cell in cells)

    def ecdf_after(dist):
        c["support_points"] += dist.support.size

    sim, emp, cli = mvlab.simulation, mvlab.empirical, mvlab.cli
    moments_hook = dict(name="moments", before=moments_before)
    eu_hook = dict(name="eu", before=eu_before, errors="eu.domain_errors")
    return [
        (sim, "sample_with_rng", dict(name=lambda p, n, rng: f"sample.{p.family.value}", before=sample_before)),
        (sim, "moments", moments_hook),
        (sim, "solve_params_for_moments", dict(name="solve", before=count("solve.calls"))),
        (sim, "sample_expected_utility", eu_hook),
        (sim, "evaluate_pair", dict(name="evaluate", before=count("evaluate.calls"), errors="evaluate.domain_rejects")),
        (emp, "moments", moments_hook),
        (emp, "sample_expected_utility", eu_hook),
        (emp, "mvc_test", dict(name="mvc", before=count("mvc.calls"))),
        (cli, "run_scenario", dict(name="run_scenario", after=scenario_after)),
        (cli, "load_returns", dict(name="load_returns")),
        (cli, "build_deciles", dict(name="build_deciles", after=deciles_after)),
        (cli, "cross_decile_analysis", dict(name="cross_decile", after=cross_after)),
        (cli, "load_lottery", dict(name="load_lottery")),
        (cli, "ecdf", dict(name="ecdf", after=ecdf_after)),
        (cli, "fsd_test", dict(name="fsd")),
        (cli, "ssd_test", dict(name="ssd")),
        (cli, "tsd_test", dict(name="tsd")),
        (cli, "quadratic_dominance_test", dict(name="quad")),
        (cli, "necessary_screen", dict(name="screen")),
        (cli, "mvc_test", dict(name="mvc", before=count("mvc.calls"))),
    ]


def _pool_class(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        """Parent-side span from pool creation to shutdown."""

        def __init__(self, *args, **kwargs):
            tracer.counts["pool.starts"] += 1
            self._bench_span = tracer.begin("pool")
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                tracer.end(self._bench_span)

    return TracedPool


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    originals = []
    try:
        for module, attr, hook in _hooks(tracer):
            originals.append((module, attr, getattr(module, attr)))
            setattr(module, attr, _wrap(tracer, getattr(module, attr), **hook))
        originals.append((mvlab.simulation, "ProcessPoolExecutor", mvlab.simulation.ProcessPoolExecutor))
        mvlab.simulation.ProcessPoolExecutor = _pool_class(tracer)
        yield tracer
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced round (``trace.overhead_s`` excluded)."""
    busy, own, c = tracer.busy(), tracer.self_time(), tracer.counts
    attempts = c["sample.calls"] // 2  # each pair attempt draws both lotteries
    return {
        "distributions.sample.calls": c["sample.calls"],
        "distributions.sample.draws": c["sample.draws"],
        **{
            f"distributions.sample.{fam}.busy_s": busy[f"sample.{fam}"]
            for fam in ("normal", "laplace", "skew_normal", "gev", "stable")
        },
        "distributions.moments.calls": c["moments.calls"],
        "distributions.moments.elements": c["moments.elements"],
        "distributions.moments.busy_s": busy["moments"],
        "distributions.solve.calls": c["solve.calls"],
        "distributions.solve.busy_s": busy["solve"],
        "utilities.eu.calls": c["eu.calls"],
        "utilities.eu.elements": c["eu.elements"],
        "utilities.eu.busy_s": busy["eu"],
        "utilities.eu.domain_errors": c["eu.domain_errors"],
        "simulation.attempts": attempts,
        "simulation.accepted_pairs": c["accepted_pairs"],
        "simulation.attempts_per_pair": attempts / c["accepted_pairs"] if c["accepted_pairs"] else 0.0,
        "simulation.regenerations": c["regenerations"],
        "simulation.evaluate.calls": c["evaluate.calls"],
        "simulation.evaluate.busy_s": busy["evaluate"],
        "simulation.evaluate.domain_rejects": c["evaluate.domain_rejects"],
        "simulation.run_scenario.busy_s": busy["run_scenario"],
        "simulation.self_s": own["run_scenario"] + own["evaluate"],
        "simulation.pool.starts": c["pool.starts"],
        "simulation.pool.busy_s": busy["pool"],
        "empirical.load_returns.busy_s": busy["load_returns"],
        "empirical.build_deciles.busy_s": busy["build_deciles"],
        "empirical.cross_decile.busy_s": busy["cross_decile"],
        "empirical.cross_decile.self_s": own["cross_decile"],
        "empirical.candidate_pairs": c["candidate_pairs"],
        "empirical.mv_pairs": c["mv_pairs"],
        "empirical.mv_pair_ratio": c["mv_pairs"] / c["candidate_pairs"] if c["candidate_pairs"] else 0.0,
        "dominance.load_lottery.busy_s": busy["load_lottery"],
        "dominance.ecdf.busy_s": busy["ecdf"],
        "dominance.fsd.busy_s": busy["fsd"],
        "dominance.ssd.busy_s": busy["ssd"],
        "dominance.tsd.busy_s": busy["tsd"],
        "dominance.quad.busy_s": busy["quad"],
        "dominance.screen.busy_s": busy["screen"],
        "dominance.support_points": c["support_points"],
        "dominance.mvc.calls": c["mvc.calls"],
        "cli.self_s": own["cli.main"],
        "cli.report_bytes": report_bytes,
    }
