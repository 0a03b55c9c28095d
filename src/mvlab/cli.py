"""Command-line interface: compare, approx-table, simulate, deciles.

Every emitted report embeds a run manifest as ``#``-prefixed comment
lines; reports regenerate bit-identically from the same inputs and seed,
with only the manifest timestamp varying.  Exit codes: 0 success,
2 usage, 3 ingestion, 4 generation, 5 domain.
"""

from __future__ import annotations

import argparse
import datetime
import math
import os
import sys

from . import __version__
from .dominance import (
    DominanceVerdict,
    Order,
    ecdf,
    fsd_test,
    load_lottery,
    mvc_test,
    necessary_screen,
    quadratic_dominance_test,
    ssd_test,
    tsd_test,
)
from .empirical import build_deciles, cross_decile_analysis, load_returns
from .errors import (
    DomainError,
    GenerationError,
    IngestionError,
    MvlabError,
    ParameterError,
    UsageError,
)
from .rng import SEED_BOUND
from .simulation import (
    DEFAULT_MASTER_SEED,
    default_scenarios,
    format_interval,
    keep_freed_memory,
    load_scenario_config,
    pair_results,
    run_scenario,
    scenario_config_text,
)
from .utilities import UtilityFamily, UtilitySpec, approx_table, table6_panel

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGESTION = 3
EXIT_GENERATION = 4
EXIT_DOMAIN = 5

MAX_GRID_ROWS = 100_000

# The classic approximation table: ln(1+z), sqrt(1+z), cbrt(1+z) on a
# -60%..100% grid in 10% steps.
CLASSIC_GRID = [round(-0.6 + 0.1 * i, 10) for i in range(17)]
CLASSIC_UTILITIES = [
    UtilitySpec(UtilityFamily.LOG, 1.0),
    UtilitySpec(UtilityFamily.POWER, 0.5),
    UtilitySpec(UtilityFamily.POWER, 1.0 / 3.0),
]


def _manifest_lines(command, config_path, output_path, master_seed) -> list[str]:
    """The run manifest as ``#`` lines: the command, its input and output
    paths, the seed, the tool version and the current UTC time."""
    return [
        f"# command: {command}",
        f"# config: {config_path or '-'}",
        f"# output: {output_path or '-'}",
        f"# seed: {master_seed if master_seed is not None else '-'}",
        f"# version: {__version__}",
        f"# timestamp: {datetime.datetime.now(datetime.timezone.utc).isoformat()}",
    ]


def _write_report(path, manifest: list[str], header: list[str], rows, fmt: str) -> None:
    """CSV or aligned-markdown report with the manifest lines on top."""
    cells = [[_cell(v) for v in row] for row in rows]
    lines = list(manifest)
    if fmt == "csv":
        lines.append(",".join(header))
        lines.extend(",".join(row) for row in cells)
    else:
        widths = [
            max(len(header[i]), *(len(r[i]) for r in cells)) if cells else len(header[i])
            for i in range(len(header))
        ]
        lines.append("| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |")
        lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in cells:
            lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _check_output(path) -> None:
    """Raise UsageError unless a report can be created at ``path``: its
    directory must exist and ``path`` must not be one.  Commands call this
    before any work, so a long run does not end in a failed write."""
    if path is None:
        return
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise UsageError(f"cannot write {path}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _verdict_text(v: DominanceVerdict) -> str:
    text = v.relation.value
    if v.strict:
        text += " (strict)"
    if v.witness is not None:
        text += f" witness={v.witness:g}"
    return text


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    # built per call, so each rule resolves its test at this module's attribute
    tests = {
        "fsd": fsd_test,
        "ssd": ssd_test,
        "tsd": tsd_test,
        "mvc": lambda f, g: mvc_test(f.moment_summary(), g.moment_summary()),
        "quad": quadratic_dominance_test,
    }
    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in tests]
    if unknown:
        raise UsageError(f"unknown rules {unknown}; choose from {','.join(tests)}")
    if not rules:
        raise UsageError("no rules requested")
    _check_output(args.out)
    f, g = ecdf(load_lottery(args.lottery_a)), ecdf(load_lottery(args.lottery_b))
    verdicts = {rule: tests[rule](f, g) for rule in rules}
    rows = []
    for rule, verdict in verdicts.items():
        rows.append(
            (
                rule,
                verdict.relation.value,
                verdict.strict,
                verdict.witness,
            )
        )
        print(f"{rule}: {_verdict_text(verdict)}")
    for direction, first, second in (("a_over_b", f, g), ("b_over_a", g, f)):
        for order in (Order.FIRST, Order.SECOND, Order.THIRD):
            violated = necessary_screen(first, second, order)
            rows.append(
                (
                    f"screen_{direction}_order{int(order)}",
                    "violated: " + ";".join(violated) if violated else "clear",
                    None,
                    None,
                )
            )
            label = "clear" if not violated else ", ".join(violated)
            print(f"screen {direction} order {int(order)}: {label}")
    if args.out:
        manifest = _manifest_lines("compare", None, args.out, None)
        _write_report(
            args.out, manifest, ["rule", "relation", "strict", "witness"], rows, args.format
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# approx-table
# ---------------------------------------------------------------------------


def _parse_grid(text: str) -> list[float]:
    try:
        lo, hi, step = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"grid must be LO:HI:STEP, got {text!r}") from exc
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise UsageError(f"grid bounds and step must be finite, got {text!r}")
    if step <= 0 or hi < lo:
        raise UsageError(f"bad grid {text!r}")
    steps = (hi - lo) / step
    # the grid has round(steps) + 1 rows; steps is inf when hi - lo overflows
    if steps >= MAX_GRID_ROWS - 0.5:
        raise UsageError(f"grid {text!r} has more than {MAX_GRID_ROWS} rows")
    return [round(lo + i * step, 12) for i in range(int(round(steps)) + 1)]


def cmd_approx_table(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else CLASSIC_GRID
    if args.utility:
        if args.param is None:
            raise UsageError("--param is required with --utility")
        try:
            specs = [UtilitySpec(UtilityFamily(args.utility), args.param)]
        except ParameterError as exc:
            raise UsageError(f"--param: {exc}") from exc
    elif args.param is not None:
        raise UsageError("--param needs --utility")
    else:
        specs = CLASSIC_UTILITIES
    _check_output(args.out)
    tables = [approx_table(spec, grid) for spec in specs]
    header = ["z"]
    for spec in specs:
        header += [f"U[{spec.identifier}]", f"Q[{spec.identifier}]"]
    rows = []
    for i, z in enumerate(grid):
        row = [z]
        for table in tables:
            row += [table[i][1], table[i][2]]
        rows.append(row)
    manifest = _manifest_lines("approx-table", None, args.out, None)
    _write_report(args.out, manifest, header, rows, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    # A config's cells carry their own seeds, which --seed overrides; the
    # default grid runs, emits and records --seed or DEFAULT_MASTER_SEED.
    seed = args.seed
    if seed is not None and not 0 <= seed < SEED_BOUND:
        raise UsageError(f"--seed must lie in [0, 2**64), got {seed}")
    if seed is None and not args.config:
        seed = DEFAULT_MASTER_SEED
    if args.emit_default_config:
        if args.config:
            raise UsageError("--emit-default-config writes the default grid; it takes no config")
        _check_output(args.emit_default_config)
        text = scenario_config_text(default_scenarios(seed, paper_scale=args.paper_scale))
        with open(args.emit_default_config, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote default scenario config to {args.emit_default_config}")
        return EXIT_OK
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    _check_output(args.out)
    if args.config:
        scenarios = load_scenario_config(
            args.config, seed_override=seed, paper_scale=args.paper_scale
        )
    else:
        scenarios = default_scenarios(seed, paper_scale=args.paper_scale)
    panel = table6_panel()
    header = [
        "scenario_id",
        "family",
        "mean_ratio",
        "std_ratio",
        "skew_ratio",
        "utility_id",
        "a",
        "success_pct",
        "n_pairs",
        "n_regenerations",
    ]
    rows = []
    # One pool for the whole run; each cell is aggregated by its own
    # run_scenario call as its last pair comes in.  The call stays here,
    # not inside run_scenarios, because bench/tracing.py counts each
    # cell's pairs and regenerations at mvlab.cli.run_scenario.
    with pair_results(scenarios, panel, workers=args.workers) as results:
        for spec in scenarios:
            report = run_scenario(spec, panel, results=results)
            for utility in panel:
                uid = utility.identifier
                rows.append(
                    (
                        spec.scenario_id,
                        spec.family.value,
                        format_interval(spec.mean_ratio),
                        format_interval(spec.std_ratio),
                        format_interval(spec.skew_ratio),
                        uid,
                        utility.a,
                        report.success_pct[uid],
                        report.n_pairs_run,
                        report.n_regenerations,
                    )
                )
            low = min(report.success_pct, key=report.success_pct.get)
            print(
                f"{spec.scenario_id}: {report.n_pairs_run} pairs, "
                f"{report.n_regenerations} regenerations, lowest success "
                f"{report.success_pct[low]:.1f}% ({low})"
            )
            for note in report.diagnostics:
                print(f"  diagnostic: {note}")
    manifest = _manifest_lines("simulate", args.config, args.out, seed)
    _write_report(args.out, manifest, header, rows, args.format)
    if args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# deciles
# ---------------------------------------------------------------------------


def cmd_deciles(args) -> int:
    if args.deciles < 2:
        raise UsageError(f"--deciles must be >= 2, got {args.deciles}")
    suffix = "md" if args.format == "md" else "csv"
    stats_path = f"{args.out}_decile_stats.{suffix}"
    agreement_path = f"{args.out}_agreement.{suffix}"
    counts_path = f"{args.out}_agreement_counts.{suffix}"
    for path in (stats_path, agreement_path, counts_path):
        _check_output(path)
    table = load_returns(args.returns)
    if args.deciles > len(table.tickers):
        raise UsageError(
            f"{args.deciles} deciles requested but only "
            f"{len(table.tickers)} tickers retained"
        )
    assignment = build_deciles(table, args.deciles)
    panel = table6_panel()
    cells = cross_decile_analysis(assignment, table, panel)
    manifest = _manifest_lines("deciles", args.returns, args.out, None)
    # statistics as rows, deciles as columns (the printed-table layout)
    stats_header = ["statistic"] + [f"Dec {s.decile}" for s in assignment.stats]
    stats_rows = [
        ["mean"] + [s.mean for s in assignment.stats],
        ["std"] + [s.std for s in assignment.stats],
        ["skewness"] + [s.skewness for s in assignment.stats],
        ["n_tickers"] + [s.n_tickers for s in assignment.stats],
    ]
    _write_report(stats_path, manifest, stats_header, stats_rows, args.format)
    # one row per pairing, one column per utility (the printed-table layout)
    agreement_header = ["pairing", "n_mv_pairs"] + [u.identifier for u in panel]
    agreement_rows = []
    counts_rows = []
    for cell in cells:
        label = f"Dec 1 vs Dec {cell.decile}"
        agreement_rows.append(
            [label, cell.n_mv_pairs]
            + [cell.success_pct.get(u.identifier) for u in panel]
        )
        counts_rows.append(
            [label, cell.n_mv_pairs] + [cell.n_evaluated[u.identifier] for u in panel]
        )
    _write_report(agreement_path, manifest, agreement_header, agreement_rows, args.format)
    _write_report(counts_path, manifest, agreement_header, counts_rows, args.format)
    print(f"wrote {stats_path}, {agreement_path} and {counts_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvlab",
        description="Stochastic-dominance rules, the mean-variance criterion, "
        "and Monte Carlo agreement experiments.",
    )
    parser.add_argument("--version", action="version", version=f"mvlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="pairwise decision rules on two lottery files")
    p.add_argument("lottery_a")
    p.add_argument("lottery_b")
    p.add_argument("--rules", default="fsd,ssd,tsd,mvc,quad")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("approx-table", help="utility vs quadratic approximation table")
    p.add_argument("--utility", choices=[f.value for f in UtilityFamily], default=None)
    p.add_argument("--param", type=float, default=None)
    p.add_argument("--grid", default=None, help="LO:HI:STEP, default -0.6:1.0:0.1")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    p.set_defaults(func=cmd_approx_table)

    p = sub.add_parser("simulate", help="run Monte Carlo scenario cells")
    p.add_argument("config", nargs="?", default=None, help="INI scenario config")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--paper-scale", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    p.add_argument("--emit-default-config", default=None, metavar="PATH")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("deciles", help="skewness deciles and cross-decile agreement")
    p.add_argument("returns")
    p.add_argument("--deciles", type=int, default=10)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    p.set_defaults(func=cmd_deciles)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    keep_freed_memory()  # forked pool workers inherit it
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IngestionError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGESTION
    except GenerationError as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    except (DomainError, ParameterError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MvlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
