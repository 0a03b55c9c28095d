"""The benchmark's own tests.  Run from the root of a checkout:

    python3 bench/selftest.py

They check that inputs are a pure function of the seed, that the result
digest repeats, that a corrupted report is counted as a failed unit, that
the trace emits every per-layer metric, and that the benchmark refuses to
run without the program's sources.
"""

from __future__ import annotations

import filecmp
import os
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import run

run._import_program()

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from mvlab import cli  # noqa: E402

SCRATCH = os.path.join(run.ROOT, ".bench_work", "selftest")

# Small inputs keep each round well under a second.
TINY_DESK = (
    ("normal", "normal", "1.05", "1.05", None, 0.01, 0.008, None, 3),
    ("stable", "stable", "1.1..1.3", "1.1..1.3", "1.5..3", 0.01, 0.03, 0.2, 1),
)


def _dir(name):
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    return path


def _corrupting(edit):
    """``cli.main`` that applies ``edit`` to the report it just wrote."""
    real_main = cli.main

    def main(argv):
        code = real_main(argv)
        path = argv[argv.index("--out") + 1]
        if argv[0] == "deciles":
            path += "_agreement_counts.csv"
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(edit(argv, text))
        return code

    return main


def _set_normal_success(value):
    """Edit that sets ``success_pct`` in the normal cell's first row."""

    def edit(argv, text):
        lines = text.splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("normal,"))
        fields = lines[row].split(",")
        fields[7] = value
        lines[row] = ",".join(fields)
        return "".join(lines)

    return edit


class Inputs(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in run.WORKLOADS:
            dirs = [_dir(f"{workload}-{tag}") for tag in "abc"]
            for directory, seed in zip(dirs, (gen.DEFAULT_SEED, gen.DEFAULT_SEED, gen.HELD_OUT_SEED)):
                gen.write_inputs(workload, seed, directory)
            names = sorted(os.listdir(dirs[0]))
            self.assertEqual(filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)[0], names)
            self.assertEqual(filecmp.cmpfiles(dirs[0], dirs[2], names, shallow=False)[1], names)


@mock.patch.object(gen, "DESK_CELLS", TINY_DESK)
@mock.patch.object(gen, "PANEL_TICKERS", 60)
@mock.patch.object(gen, "LOTTERY_PAIRS", gen.LOTTERY_PAIRS[:3])
class Rounds(unittest.TestCase):
    def round(self, workload, seed=gen.DEFAULT_SEED, tag="a"):
        w = run.make_workload(workload, seed, _dir(f"round-{workload}-{tag}"))
        return w, run.run_round(w)

    def test_clean_rounds_pass_checks_and_oracle(self):
        for workload in ("simulate_desk", "deciles_panel", "compare_batch"):
            w, result = self.round(workload)
            self.assertEqual(result["failed"], 0, result["problems"])
            self.assertEqual(w.oracle(), (0, []))

    def test_same_seed_same_digest(self):
        for workload in ("simulate_desk", "deciles_panel", "compare_batch"):
            _, first = self.round(workload, tag="a")
            _, second = self.round(workload, tag="b")
            _, other = self.round(workload, seed=gen.HELD_OUT_SEED, tag="c")
            self.assertEqual(checks.digest(first["bodies"]), checks.digest(second["bodies"]))
            self.assertNotEqual(checks.digest(first["bodies"]), checks.digest(other["bodies"]))

    def test_corrupted_simulate_report_fails_one_cell(self):
        with mock.patch.object(cli, "main", _corrupting(_set_normal_success("101"))):
            w, result = self.round("simulate_desk")
        self.assertEqual(result["failed"], 1)
        self.assertEqual(w.units, 2)

    def test_unreadable_report_fails_every_unit(self):
        with mock.patch.object(cli, "main", _corrupting(_set_normal_success("n/a"))):
            w, result = self.round("simulate_desk")
        self.assertEqual(result["failed"], w.units)

    def test_corrupted_deciles_report_fails_one_cell(self):
        def edit(argv, text):
            lines = text.splitlines(keepends=True)
            row = next(i for i, line in enumerate(lines) if line.startswith("Dec 1 vs Dec 3,"))
            fields = lines[row].rstrip("\n").split(",")
            fields[2] = str(int(fields[1]) + 1)
            lines[row] = ",".join(fields) + "\n"
            return "".join(lines)

        with mock.patch.object(cli, "main", _corrupting(edit)):
            _, result = self.round("deciles_panel")
        self.assertEqual(result["failed"], 1)

    def test_corrupted_compare_report_fails_one_call(self):
        def edit(argv, text):
            if not argv[-1].endswith("pair0_ba.csv"):
                return text
            return text.replace("fsd,first_dominates", "fsd,no_dominance").replace(
                "fsd,second_dominates", "fsd,no_dominance"
            )

        with mock.patch.object(cli, "main", _corrupting(edit)):
            _, result = self.round("compare_batch")
        self.assertEqual(result["failed"], 1, result["problems"])

    def test_failed_call_fails_every_unit(self):
        with mock.patch.object(cli, "main", lambda argv: 4):
            w, result = self.round("simulate_desk")
        self.assertEqual(result["failed"], w.units)

    def test_trace_emits_every_per_layer_metric(self):
        w = run.make_workload("simulate_desk", gen.DEFAULT_SEED, _dir("trace"))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            result = run.run_round(w, tracer)
        self.assertEqual(cli.run_scenario.__module__, "mvlab.simulation")
        layers = tracing.layer_metrics(tracer, result["report_bytes"])
        self.assertEqual(set(layers) | {"trace.overhead_s"}, set(tracing.PER_LAYER))
        self.assertEqual(layers["simulation.accepted_pairs"], 4)
        self.assertGreaterEqual(layers["simulation.attempts_per_pair"], 1.0)
        self.assertGreater(layers["distributions.sample.stable.busy_s"], 0.0)
        self.assertGreater(layers["cli.self_s"], 0.0)
        for _, parent, _, _, start, end in tracer.spans:
            self.assertLessEqual(start, end)
            if parent is not None:
                self.assertLessEqual(tracer.spans[parent][4], start)


class Refusal(unittest.TestCase):
    def test_exits_non_zero_without_program_sources(self):
        bare = _dir("bare")
        shutil.copytree(os.path.dirname(os.path.abspath(run.__file__)), os.path.join(bare, "bench"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "compare_batch", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
