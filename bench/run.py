"""mvlab benchmark: drives the real CLI in-process through ``mvlab.cli.main``.

Run from the root of a checkout:

    python3 bench/run.py --workload simulate_desk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Each workload is a closed loop with one client: a round is a fixed list of
CLI calls on inputs generated from ``--seed``, each call starting when the
previous one returns.  Rounds repeat for about ``--seconds`` seconds; every
round's outputs are checked.  With ``--trace 0`` the last line of stdout is a
JSON object with the end-to-end metrics, with ``--trace 1`` one with the
per-layer metrics.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checks
import gen

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("simulate_desk", "simulate_paper_pool", "deciles_panel", "compare_batch")
SETUP_REPEATS = 3
SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import mvlab.cli; mvlab.cli.build_parser()"
RULES = "fsd,ssd,tsd,mvc,quad"


def _import_program():
    """Import mvlab from this checkout's ``src``, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "mvlab", "cli.py")):
        sys.exit(f"bench: no src/mvlab/cli.py under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import mvlab

    if not os.path.abspath(mvlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported mvlab from {mvlab.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Workloads: the CLI calls of one round, their units, and their checks
# ---------------------------------------------------------------------------


class Workload:
    """One round's argv lists; ``check`` maps exit codes to failed units."""

    def __init__(self, name, seed, work_dir):
        self.name, self.seed = name, seed
        self.inputs = gen.write_inputs(name, seed, os.path.join(work_dir, "in"))
        self.out = os.path.join(work_dir, "out")
        os.makedirs(self.out, exist_ok=True)
        self.setup()

    def outputs(self) -> list[str]:
        return [os.path.join(self.out, f) for f in sorted(os.listdir(self.out))]


class Simulate(Workload):
    def setup(self):
        from mvlab import load_scenario_config, table6_panel

        self.workers = 2 if self.name == "simulate_paper_pool" else 1
        self.specs = load_scenario_config(self.inputs["config"])
        self.panel = table6_panel()
        self.report = os.path.join(self.out, "report.csv")
        self.argvs = [[
            "simulate", self.inputs["config"], "--workers", str(self.workers), "--out", self.report,
        ]]
        self.units = len(self.specs)
        self.pairs = sum(spec.n_pairs for spec in self.specs)

    def check(self, codes):
        if codes[0] != 0:
            return self.units, [f"simulate exited {codes[0]}"], []
        per_cell = checks.check_simulate(self.report, self.specs, [u.identifier for u in self.panel])
        problems = [f"{sid}: {p}" for sid, ps in per_cell.items() for p in ps]
        return sum(1 for ps in per_cell.values() if ps), problems, [checks.report_body(self.report)]

    def oracle(self):
        spec = next(s for s in self.specs if s.family.value == "normal")
        problems = checks.oracle_simulate(spec, self.panel, checks.simulate_success(self.report))
        return int(bool(problems)), problems


class Deciles(Workload):
    def setup(self):
        from mvlab import build_deciles, load_returns, table6_panel

        self.n_deciles = gen.PANEL_DECILES
        assignment = build_deciles(load_returns(self.inputs["returns"]), self.n_deciles)
        d1 = len(assignment.deciles[0])
        self.pairs = d1 * sum(len(block) for block in assignment.deciles) - d1
        self.panel = table6_panel()
        self.prefix = os.path.join(self.out, "deciles")
        self.argvs = [[
            "deciles", self.inputs["returns"], "--deciles", str(self.n_deciles), "--out", self.prefix,
        ]]
        self.units = self.n_deciles

    def check(self, codes):
        if codes[0] != 0:
            return self.units, [f"deciles exited {codes[0]}"], []
        per_cell = checks.check_deciles(self.prefix, self.n_deciles, [u.identifier for u in self.panel])
        problems = [f"decile {k}: {p}" for k, ps in per_cell.items() for p in ps]
        bodies = [
            checks.report_body(f"{self.prefix}_{part}.csv")
            for part in ("decile_stats", "agreement", "agreement_counts")
        ]
        return sum(1 for ps in per_cell.values() if ps), problems, bodies

    def oracle(self):
        decile = 2 + self.seed % (self.n_deciles - 1)
        problems = checks.oracle_deciles(
            self.inputs["returns"], self.prefix, self.n_deciles, decile, self.panel
        )
        return int(bool(problems)), problems


class Compare(Workload):
    def setup(self):
        self.argvs, self.reports = [], []
        for i, (a, b) in enumerate(self.inputs["pairs"]):
            for tag, first, second in (("ab", a, b), ("ba", b, a)):
                report = os.path.join(self.out, f"pair{i}_{tag}.csv")
                self.argvs.append(["compare", first, second, "--rules", RULES, "--out", report])
                self.reports.append(report)
        self.units = self.pairs = len(self.argvs)

    def check(self, codes):
        failed, problems = 0, []
        for i in range(0, len(self.argvs), 2):
            if codes[i] or codes[i + 1]:
                call_problems = [[f"exited {codes[i]}"] if codes[i] else [],
                                 [f"exited {codes[i + 1]}"] if codes[i + 1] else []]
            else:
                call_problems = checks.check_compare(
                    checks.compare_relations(self.reports[i]),
                    checks.compare_relations(self.reports[i + 1]),
                )
            for j, ps in enumerate(call_problems):
                failed += bool(ps)
                problems += [f"{os.path.basename(self.reports[i + j])}: {p}" for p in ps]
        return failed, problems, [checks.report_body(r) for r in self.reports]

    def oracle(self):
        failed, problems = 0, []
        for i in range(len(self.inputs["pairs"])):
            lottery_a, lottery_b = gen.lottery_pair(self.seed, i)
            ps = checks.oracle_compare(lottery_a, lottery_b, checks.compare_relations(self.reports[2 * i]))
            failed += bool(ps)
            problems += [f"pair {i}: {p}" for p in ps]
        return failed, problems


def make_workload(name, seed, work_dir) -> Workload:
    cls = {"deciles_panel": Deciles, "compare_batch": Compare}.get(name, Simulate)
    return cls(name, seed, work_dir)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def _clear_caches():
    """Drop memoized solves so each round pays what a fresh CLI process pays."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("mvlab."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run_round(workload: Workload, tracer=None) -> dict:
    """Run every CLI call of one round; returns its wall time and checks."""
    from mvlab import cli

    _clear_caches()
    for path in workload.outputs():
        os.remove(path)
    gc.collect()
    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    for argv in workload.argvs:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    tracer.request += 1
                    with tracer.span("cli.main"):
                        code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                code = 1
        codes.append(code)
    wall = time.perf_counter() - start
    try:
        failed, problems, bodies = workload.check(codes)
    except (OSError, ValueError, IndexError) as exc:
        failed, problems, bodies = workload.units, [f"unreadable report: {exc!r}"], []
    if any(codes):
        problems.append("CLI output: " + sink.getvalue()[-2000:])
    report_bytes = sum(os.path.getsize(p) for p in workload.outputs())
    return {
        "wall": wall, "failed": failed, "problems": problems,
        "bodies": bodies, "report_bytes": report_bytes,
    }


def measure_setup() -> float:
    """Median time from spawning a fresh interpreter to mvlab.cli ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing

    work_dir = os.path.join(ROOT, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    # Input generation and the set-up spawns count toward ``seconds``.
    start = time.perf_counter()
    try:
        workload = make_workload(name, seed, work_dir)
        setup_s = None if trace else measure_setup()
        rounds, traced = [], []
        while True:
            use_tracer = trace and (len(rounds) + len(traced)) % 2 == 1
            if use_tracer:
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    result = run_round(workload, tracer)
                result["layers"] = tracing.layer_metrics(tracer, result["report_bytes"])
                result["spans"] = tracer.spans
            else:
                result = run_round(workload)
            (traced if use_tracer else rounds).append(result)
            result["digest"] = checks.digest(result["bodies"])
            if result["digest"] != rounds[0]["digest"]:
                result["failed"] = workload.units
                result["problems"].append("reports differ from the first round's")
            elapsed = time.perf_counter() - start
            walls = [r["wall"] for r in rounds + traced]
            enough = not trace or traced
            if enough and elapsed + statistics.median(walls) > seconds:
                break
        # The reports of every round are identical (digest check), so the
        # oracle reads the last round's, outside the measured loop.
        try:
            oracle_failed, oracle_problems = workload.oracle()
        except (OSError, ValueError, IndexError) as exc:
            oracle_failed, oracle_problems = workload.units, [f"unreadable report: {exc!r}"]
        result["failed"] = min(workload.units, result["failed"] + oracle_failed)
        result["problems"] += [f"oracle: {p}" for p in oracle_problems]
        everything = rounds + traced
        summary = {
            "workload": name, "seed": seed, "walls": [r["wall"] for r in everything],
            "attempted": workload.units * len(everything),
            "failed": sum(r["failed"] for r in everything),
            "problems": [p for r in everything for p in r["problems"]],
            "digest": rounds[0]["digest"],
        }
        wall = statistics.median(r["wall"] for r in rounds)
        if trace:
            metrics = {
                key: statistics.median(r["layers"][key] for r in traced)
                for key in traced[0]["layers"]
            }
            metrics["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - wall
            summary["metrics"] = {k: (v, tracing.PER_LAYER[k][0]) for k, v in metrics.items()}
            _write_trace(name, seed, summary, traced[-1]["spans"])
        else:
            summary["metrics"] = {
                "setup_s": (setup_s, "s"),
                "wall_s": (wall, "s"),
                "pairs_per_s": (workload.pairs / wall, "pairs/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
        return summary
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _write_trace(name, seed, summary, spans):
    """Per-layer metrics and the spans of the last traced round, as JSON."""
    path = os.path.join(ROOT, ".bench_work", "traces", f"{name}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fields = ("id", "parent", "request", "name", "start", "end")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": name, "seed": seed, "metrics": summary["metrics"],
            "spans": [dict(zip(fields, span)) for span in spans],
        }, handle)
    summary["trace_file"] = os.path.relpath(path, ROOT)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def print_summary(s: dict) -> None:
    print(f"workload {s['workload']}  seed {s['seed']}  digest {s['digest'][:16]}")
    print(f"  round walls (s): {' '.join(f'{w:.3f}' for w in s['walls'])}")
    print(f"  {'ops':<42} {s['attempted']:>14} count")
    print(f"  {'ops_failed':<42} {s['failed']:>14} count")
    for key, (value, unit) in s["metrics"].items():
        print(f"  {key:<42} {value:>14.6g} {unit}")
    for problem in s["problems"][:20]:
        print(f"  FAILED CHECK: {problem}")
    if "trace_file" in s:
        print(f"  spans: {s['trace_file']}")


def result_line(s: dict) -> str:
    return json.dumps({
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in s["metrics"].items()},
    })


def run_all(args) -> int:
    """Every workload in its own process, so each gets its own peak RSS."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            totals["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=None, help="default: gen.DEFAULT_SEED")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    if args.seed is None:
        args.seed = gen.DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(summary)
    print(result_line(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
