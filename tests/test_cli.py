import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvlab

from mvlab.cli import (
    EXIT_DOMAIN,
    EXIT_GENERATION,
    EXIT_INGESTION,
    EXIT_OK,
    EXIT_USAGE,
    _parse_grid,
    main,
)
from mvlab.distributions import Family, MomentTarget
from mvlab.dominance import DiscreteLottery, mvc_test
from mvlab.empirical import _returns_block
from mvlab.rng import spawn_rng
from mvlab.simulation import ScenarioSpec, scenario_config_text
from mvlab.utilities import round_half_away_from_zero


@pytest.fixture
def lottery_files(tmp_path):
    z1 = tmp_path / "z1.csv"
    z2 = tmp_path / "z2.csv"
    z1.write_text("value,probability\n5,0.4\n10,0.6\n")
    z2.write_text("value,probability\n10,0.4\n20,0.6\n")
    return z1, z2


@pytest.fixture
def table3_files(tmp_path):
    f = tmp_path / "f.csv"
    g = tmp_path / "g.csv"
    f.write_text("value,probability\n5,0.8\n30,0.2\n")
    g.write_text("value,probability\n7,0.99\n150,0.01\n")
    return f, g


# a cell that is not UTF-8, and two longer than the csv module's field limit:
# one that parses to inf and one that parses to a finite 0.0
UNREADABLE_CSV_BODIES = [
    b"10,0.6 caf\xe9\n",
    b"10," + b"1" * 131_073 + b"\n",
    b"0." + b"0" * 131_071 + b",0.6\n",
]
UNREADABLE_CSV_IDS = ["latin1_byte", "huge_field", "huge_finite_field"]


def _small_config(tmp_path, n_obs=2000, n_pairs=3, seed=99):
    spec = ScenarioSpec(
        scenario_id="normal_small",
        family=Family.NORMAL,
        mean_ratio=1.05,
        std_ratio=1.05,
        base=MomentTarget(0.01, 0.008),
        n_obs=n_obs,
        n_pairs=n_pairs,
        master_seed=seed,
    )
    path = tmp_path / "grid.ini"
    path.write_text(scenario_config_text([spec]))
    return path


def _strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("# timestamp")
    )


def test_main_keeps_freed_memory_once_per_call(monkeypatch, capsys):
    # a recorder stands in for the allocator setting, which would act on
    # this process; it runs before the command, whatever the command returns
    calls = []
    approx_table = mvlab.cli.approx_table

    def recording_approx_table(spec, grid):
        calls.append("command")
        return approx_table(spec, grid)

    monkeypatch.setattr(mvlab.cli, "keep_freed_memory", lambda: calls.append("keep"))
    monkeypatch.setattr(mvlab.cli, "approx_table", recording_approx_table)
    assert main(["approx-table", "--grid", "0:0:1"]) == EXIT_OK
    assert calls == ["keep", "command", "command", "command"]
    calls.clear()
    assert main(["approx-table", "--utility", "log"]) == EXIT_USAGE
    assert calls == ["keep"]


class TestCompare:
    def test_fsd_direction(self, lottery_files, capsys):
        z1, z2 = lottery_files
        assert main(["compare", str(z1), str(z2), "--rules", "fsd"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "fsd: second_dominates (strict)" in out

    def test_identical_files(self, lottery_files, capsys):
        z1, _ = lottery_files
        assert main(["compare", str(z1), str(z1)]) == EXIT_OK
        out = capsys.readouterr().out
        for rule in ("fsd", "ssd", "tsd", "mvc", "quad"):
            assert f"{rule}: indistinguishable" in out

    def test_table3_mvc_vs_ssd(self, table3_files, capsys):
        f, g = table3_files
        assert main(["compare", str(f), str(g), "--rules", "mvc,ssd"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "mvc: first_dominates (strict)" in out
        assert "ssd: no_dominance" in out

    def test_unknown_rule_usage_error(self, lottery_files):
        z1, z2 = lottery_files
        assert main(["compare", str(z1), str(z2), "--rules", "zzz"]) == EXIT_USAGE

    def test_unknown_rule_checked_before_loading(self, tmp_path, lottery_files, capsys):
        _, z2 = lottery_files
        argv = ["compare", str(tmp_path / "nope.csv"), str(z2), "--rules", "fsd,zzz"]
        assert main(argv) == EXIT_USAGE
        assert "unknown rules ['zzz']; choose from fsd,ssd,tsd,mvc,quad" in capsys.readouterr().err

    def test_missing_file_ingestion_error(self, tmp_path, lottery_files):
        z1, _ = lottery_files
        assert main(["compare", str(z1), str(tmp_path / "nope.csv")]) == EXIT_INGESTION

    def test_nan_probability_ingestion_error(self, lottery_files, tmp_path, capsys):
        z1, _ = lottery_files
        bad = tmp_path / "nan.csv"
        bad.write_text("value,probability\n0.1,0.2\n0.3,nan\n")
        assert main(["compare", str(z1), str(bad)]) == EXIT_INGESTION
        captured = capsys.readouterr()
        assert "probabilities must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("body", UNREADABLE_CSV_BODIES, ids=UNREADABLE_CSV_IDS)
    def test_unreadable_lottery_ingestion_error(self, lottery_files, tmp_path, capsys, body):
        z1, _ = lottery_files
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"value,probability\n5,0.4\n" + body)
        assert main(["compare", str(z1), str(bad)]) == EXIT_INGESTION
        err = capsys.readouterr().err
        assert err.startswith(f"ingestion error: cannot read lottery file {bad}: ")
        assert "Traceback" not in err

    def test_report_written(self, lottery_files, tmp_path, capsys):
        z1, z2 = lottery_files
        out_path = tmp_path / "verdicts.csv"
        assert main(["compare", str(z1), str(z2), "--out", str(out_path)]) == EXIT_OK
        text = out_path.read_text()
        assert "# command: compare" in text
        assert "fsd,second_dominates,True" in text

    def test_out_in_missing_directory_usage_error(self, lottery_files, tmp_path, capsys):
        z1, z2 = lottery_files
        out_path = tmp_path / "missing" / "verdicts.csv"
        assert main(["compare", str(z1), str(z2), "--out", str(out_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""  # no verdict was computed
        assert captured.err == (
            f"usage error: cannot write {out_path}: "
            f"directory {out_path.parent} does not exist\n"
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_mvc_on_a_spread_matches_lottery_moments(self, tmp_path, capsys, seed):
        # B splits each atom of A symmetrically at half its mass, so the
        # means are equal in exact arithmetic and the mvc verdict turns on
        # the last bits of the two means
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        values_a = np.sort(rng.uniform(-1.0, 1.0, n))
        probs_a = rng.dirichlet(np.ones(n))
        widths = rng.uniform(1e-3, 0.5, n)
        values_b = np.concatenate((values_a - widths, values_a + widths))
        probs_b = np.concatenate((probs_a, probs_a)) / 2.0
        paths = []
        for name, values, probs in (("a", values_a, probs_a), ("b", values_b, probs_b)):
            path = tmp_path / f"{name}.csv"
            path.write_text(
                "value,probability\n"
                + "".join(f"{v!r},{p!r}\n" for v, p in zip(values.tolist(), probs.tolist()))
            )
            paths.append(str(path))
        out_path = tmp_path / "verdicts.csv"
        assert main(["compare", *paths, "--rules", "mvc", "--out", str(out_path)]) == EXIT_OK
        want = mvc_test(
            DiscreteLottery(values_a, probs_a).moment_summary(),
            DiscreteLottery(values_b, probs_b).moment_summary(),
        )
        (row,) = [line for line in out_path.read_text().splitlines() if line.startswith("mvc,")]
        assert row == f"mvc,{want.relation.value},{want.strict},"
        assert capsys.readouterr().out.startswith(f"mvc: {want.relation.value}")


class TestApproxTable:
    def test_default_reproduces_printed_table(self, tmp_path):
        out_path = tmp_path / "table.csv"
        assert main(["approx-table", "--out", str(out_path)]) == EXIT_OK
        lines = [
            line
            for line in out_path.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        header, rows = lines[0], lines[1:]
        assert header.split(",")[0] == "z"
        assert len(rows) == 17
        first = rows[0].split(",")
        assert float(first[0]) == -0.6
        assert round_half_away_from_zero(float(first[1])) == -0.92
        assert round_half_away_from_zero(float(first[2])) == -0.78

    def test_single_point_grid(self, capsys):
        assert main(["approx-table", "--grid", "0:0:1"]) == EXIT_OK
        out = capsys.readouterr().out
        row = [line for line in out.splitlines() if line.startswith("0,")][0]
        cells = row.split(",")
        assert cells[1] == cells[2]  # U == Q at the expansion point

    def test_domain_violation_exit_code(self):
        assert main(["approx-table", "--utility", "log", "--param", "1",
                     "--grid=-2:-1.5:0.5"]) == EXIT_DOMAIN

    def test_utility_requires_param(self):
        assert main(["approx-table", "--utility", "log"]) == EXIT_USAGE

    @pytest.mark.parametrize("grid", ["nan:1:0.1", "0:inf:0.1", "0:1:nan", "-inf:0:0.1"])
    def test_non_finite_grid_usage_error(self, capsys, grid):
        assert main(["approx-table", f"--grid={grid}"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: grid bounds and step must be finite")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--utility", "power", "--param", "1"],
            ["--utility", "log", "--param", "nan"],
            ["--utility", "neg_exp", "--param=-inf"],
            ["--utility", "neg_power", "--param", "0"],
        ],
    )
    def test_bad_param_usage_error(self, capsys, argv):
        assert main(["approx-table", *argv]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: --param: ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("utility, param", [("neg_exp", "373"), ("log", "1e14")])
    def test_param_in_range_is_valid(self, capsys, utility, param):
        # valid because a lies in the family's range, however close to 0
        # U' and U'' come (neg_exp:373's U' rounds to 0 above z = 1)
        assert main(["approx-table", "--utility", utility, "--param", param]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        body = [line for line in captured.out.splitlines() if not line.startswith("#")]
        assert len(body) == 1 + 17  # the header and the classic grid's rows

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_approximation_domain_error(self, capsys):
        # U'(0) = a*exp(-a) rounds to 0 at a = 1e103, which QuadraticApprox
        # rejects; a**3 overflows to inf there, with no warning and no exception
        assert main(["approx-table", "--utility", "neg_exp", "--param", "1e103"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "domain error: quadratic approximation must be increasing and concave "
            "at its center; got c1=0.0, c2=0.0\n"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_approximation_domain_error(self, capsys):
        # U''(0) = -a*(a+1) overflows to -inf above a = 1.34e154, which
        # QuadraticApprox rejects before Q(0) = c0 + c1*0 + (-inf)*0*0 is NaN
        assert main(["approx-table", "--utility", "neg_power", "--param", "1e200"]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "domain error: quadratic approximation coefficients must be finite; "
            "got c0=-1.0, c1=1e+200, c2=-inf\n"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("utility", ["power", "log", "neg_exp", "neg_power"])
    def test_every_param_in_range_exits_cleanly(self, capsys, utility):
        # from 1e-300 to 1e308 every in-range a builds a table or fails with
        # an mvlab error: an escaped exception would fail this test
        params = np.logspace(-300, 308, 153)
        if utility == "power":
            params = params[params < 1.0]
        for param in params:
            code = main(["approx-table", "--utility", utility, "--param", repr(float(param))])
            assert code in (EXIT_OK, EXIT_DOMAIN), param
            err = capsys.readouterr().err
            assert code == EXIT_OK or err.startswith("domain error: "), (param, err)

    def test_param_without_utility_usage_error(self, capsys):
        assert main(["approx-table", "--param", "0.5"]) == EXIT_USAGE
        assert "--param needs --utility" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:1e9:1e-9", "0:100000:1", "-1e308:1e308:1"])
    def test_oversized_grid_usage_error(self, capsys, grid):
        # the row count is checked before any row is built: 0:1e9:1e-9
        # would otherwise be a list of 10**9 / 1e-9 + 1 = 1e18 floats
        assert main(["approx-table", f"--grid={grid}"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"usage error: grid {grid!r} has more than 100000 rows\n"

    def test_grid_at_row_cap(self):
        assert len(_parse_grid("0:99999:1")) == 100_000

    def test_out_in_missing_directory_usage_error(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "table.csv"
        assert main(["approx-table", "--out", str(out_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"cannot write {out_path}: directory {out_path.parent} does not exist" in err

    def test_out_naming_a_directory_usage_error(self, tmp_path, capsys):
        assert main(["approx-table", "--out", str(tmp_path)]) == EXIT_USAGE
        assert f"cannot write {tmp_path}: it is a directory" in capsys.readouterr().err

    def test_markdown_format(self, capsys):
        assert main(["approx-table", "--grid", "0:0.1:0.1", "--format", "md"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("|") > 4


class TestSimulate:
    def test_out_in_missing_directory_usage_error(self, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("simulate started work before checking --out")

        monkeypatch.setattr(mvlab.cli, "pair_results", no_work)
        config = _small_config(tmp_path)
        out_path = tmp_path / "missing" / "report.csv"
        assert main(["simulate", str(config), "--out", str(out_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"cannot write {out_path}: directory {out_path.parent} does not exist" in err
        assert not out_path.parent.exists()

    def test_runs_config_and_writes_csv(self, tmp_path, capsys):
        config = _small_config(tmp_path)
        out_path = tmp_path / "report.csv"
        assert main(["simulate", str(config), "--out", str(out_path)]) == EXIT_OK
        text = out_path.read_text()
        assert "scenario_id,family" in text
        data_rows = [
            line for line in text.splitlines() if line.startswith("normal_small")
        ]
        assert len(data_rows) == 24  # full utility panel

    def test_determinism_including_workers(self, tmp_path):
        # identical inputs and output path: bytes match minus the timestamp
        config = _small_config(tmp_path)
        path = tmp_path / "report.csv"
        texts = []
        for workers in ("1", "1", "2"):
            main(["simulate", str(config), "--out", str(path), "--workers", workers])
            texts.append(_strip_timestamp(path.read_text()))
        assert texts[0] == texts[1] == texts[2]

    def test_seed_override_recorded(self, tmp_path):
        # per-sample seed sensitivity is covered at the engine level; here
        # check the override reaches the manifest and the engine config
        config = _small_config(tmp_path)
        out = tmp_path / "r.csv"
        main(["simulate", str(config), "--out", str(out), "--seed", "123456"])
        assert "# seed: 123456" in out.read_text()

    def test_emit_default_config_round_trips(self, tmp_path):
        config_path = tmp_path / "default.ini"
        assert main(["simulate", "--emit-default-config", str(config_path)]) == EXIT_OK
        assert "[normal_1.05]" in config_path.read_text()

    def test_emit_paper_scale_config(self, tmp_path):
        from mvlab.simulation import load_scenario_config

        config_path = tmp_path / "paper.ini"
        assert main(["simulate", "--paper-scale",
                     "--emit-default-config", str(config_path)]) == EXIT_OK
        scenarios = load_scenario_config(config_path)
        assert all(s.n_obs == 100_000 and s.n_pairs == 1_000 for s in scenarios)

    def test_bad_config_usage_error(self, tmp_path, capsys):
        bad_configs = {
            "missing_key": b"[cell]\nfamily = normal\n",
            "no_section_header": b"family = normal\n",
            "duplicate_section": b"[cell]\nfamily = normal\n[cell]\nfamily = normal\n",
            "duplicate_option": b"[cell]\nfamily = normal\nfamily = laplace\n",
            "not_utf8": b"[cell]\nfamily = norm\xe9l\n",
            "bad_interpolation": b"[cell]\nfamily = normal\nmean_ratio = 5%\n",
        }
        for name, body in bad_configs.items():
            path = tmp_path / f"{name}.ini"
            path.write_bytes(body)
            assert main(["simulate", str(path)]) == EXIT_USAGE, name
            assert capsys.readouterr().err.startswith("usage error: "), name

    def test_missing_config_usage_error(self, tmp_path):
        assert main(["simulate", str(tmp_path / "none.ini")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "old, new",
        [
            ("mean_ratio = 1.05", "mean_ratio = nan"),
            ("std_ratio = 1.05", "std_ratio = 1.01..inf"),
            ("base_mean = 0.01", "base_mean = nan"),
            ("base_std = 0.008", "base_std = inf"),
        ],
    )
    def test_non_finite_config_usage_error(self, tmp_path, capsys, old, new):
        config = _small_config(tmp_path)
        text = config.read_text()
        assert old in text
        config.write_text(text.replace(old, new))
        assert main(["simulate", str(config)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error: [normal_small]")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # the target skewness 3 * 0.5 is past the skew-normal's cap
            (dict(family="skew_normal", skew_ratio="3", base_skew="0.5"),
             "skew-normal skewness magnitude must be < 0.99527, got 1.5"),
            # feasible at the interval's lower end, not at its upper one
            (dict(family="skew_normal", skew_ratio="1.5..3", base_skew="0.5"),
             "skew-normal skewness magnitude must be < 0.99527, got 1.5"),
            (dict(family="gev", skew_ratio="1.1", base_skew="-0.16"),
             "gev target skewness -0.17600000000000002 outside solvable range "
             "(-0.168103, 428903906.822987) for shape in (-1/3, 1/3)"),
            (dict(mean_ratio="1..1e308", base_mean="2"), "target mean must be finite, got inf"),
        ],
        ids=["skew_normal", "skew_normal_upper_end", "gev", "mean_overflow"],
    )
    def test_infeasible_cell_fails_at_load(self, tmp_path, capsys, overrides, message):
        config = _small_config(tmp_path, n_pairs=200)
        bad = dict(family="normal", mean_ratio="1.05", std_ratio="1.05", base_mean="0.01",
                   base_std="0.008", n_obs="2000", n_pairs="3", seed="99")
        bad.update(overrides)
        bad_lines = "".join(f"{key} = {value}\n" for key, value in bad.items())
        config.write_text(config.read_text() + "[bad]\n" + bad_lines)
        assert main(["simulate", str(config)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""  # the 200-pair normal cell never ran
        assert captured.err == f"usage error: [bad] {message}\n"

    @pytest.mark.parametrize(
        "flags, n_obs, n_pairs",
        [([], 20_000, 200), (["--paper-scale"], 100_000, 1_000)],
        ids=["desk", "paper"],
    )
    def test_default_grid_without_config(self, monkeypatch, flags, n_obs, n_pairs):
        from mvlab.simulation import default_scenarios

        class Stop(Exception):
            pass

        runs = []

        def recording_pair_results(specs, panel, workers):
            runs.append(specs)
            raise Stop  # before any pair runs

        monkeypatch.setattr(mvlab.cli, "pair_results", recording_pair_results)
        with pytest.raises(Stop):
            main(["simulate", "--seed", "7", *flags])
        (specs,) = runs
        assert len(specs) == 15
        assert {(s.master_seed, s.n_obs, s.n_pairs) for s in specs} == {(7, n_obs, n_pairs)}
        assert specs == default_scenarios(master_seed=7, paper_scale=bool(flags))

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_usage_error(self, tmp_path, capsys, workers):
        config = _small_config(tmp_path)
        assert main(["simulate", str(config), "--workers", workers]) == EXIT_USAGE
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_attempt_cap_generation_error(self, tmp_path, monkeypatch, capsys):
        from mvlab import simulation

        monkeypatch.setattr(simulation, "SOLVABLE_ATTEMPT_CAP", 2)
        config = _small_config(tmp_path)
        # a negative base mean scaled up by mean_ratio: every attempt misses MV
        config.write_text(config.read_text().replace("base_mean = 0.01", "base_mean = -0.5"))
        assert main(["simulate", str(config)]) == EXIT_GENERATION
        assert "2-attempt generation cap" in capsys.readouterr().err

    def test_failing_cell_stops_the_shared_pool(self, tmp_path, monkeypatch, capsys):
        from mvlab import simulation

        # the workers are forked, so each attempt appends to a file
        marker = tmp_path / "attempts.log"
        attempt_solvable = simulation._attempt_solvable

        def marked_attempt(spec, pair_index, attempt):
            with open(marker, "a", encoding="utf-8") as handle:
                handle.write(f"{spec.scenario_id}\n")
            return attempt_solvable(spec, pair_index, attempt)

        monkeypatch.setattr(simulation, "_attempt_solvable", marked_attempt)
        cell = dict(
            family=Family.NORMAL, mean_ratio=1.05, std_ratio=1.05,
            base=MomentTarget(0.01, 0.008), n_obs=2000, n_pairs=3, master_seed=99,
        )
        # a negative base mean scaled up by mean_ratio: every attempt misses MV
        doomed = ScenarioSpec(
            scenario_id="doomed", **{**cell, "base": MomentTarget(-0.5, 0.001), "n_pairs": 24}
        )
        later = [ScenarioSpec(scenario_id=f"later{k}", **cell) for k in range(2)]
        config = tmp_path / "grid.ini"
        config.write_text(scenario_config_text([doomed, *later]))
        outcomes = []
        for workers in ("1", "2"):
            marker.unlink(missing_ok=True)
            code = main(["simulate", str(config), "--workers", workers])
            outcomes.append((code, capsys.readouterr()))
            assert set(marker.read_text().split()) == {"doomed"}, workers
        (code_1, out_1), (code_2, out_2) = outcomes
        assert code_1 == code_2 == EXIT_GENERATION
        assert out_1.err == out_2.err
        assert "pair 0 exceeded the 100-attempt generation cap" in out_1.err
        assert out_1.out == out_2.out == ""

    def test_one_pool_and_one_run_scenario_call_per_cell(self, tmp_path, monkeypatch, capsys):
        from mvlab import cli, simulation

        # cmd_simulate looks run_scenario up at mvlab.cli once per cell, so a
        # wrapper placed there sees every cell's report
        pools, reports = [], []
        real_pool, real_run_scenario = simulation.ProcessPoolExecutor, cli.run_scenario

        class CountingPool(real_pool):
            def __init__(self, max_workers, initializer=None):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, initializer=initializer)

        def recording_run_scenario(*args, **kwargs):
            reports.append(real_run_scenario(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(cli, "run_scenario", recording_run_scenario)
        cell = dict(
            family=Family.NORMAL, mean_ratio=1.05, std_ratio=1.05,
            base=MomentTarget(0.01, 0.008), n_obs=2000, n_pairs=2,
        )
        specs = [ScenarioSpec(scenario_id=f"cell{k}", master_seed=40 + k, **cell) for k in range(3)]
        config = tmp_path / "grid.ini"
        config.write_text(scenario_config_text(specs))
        out = tmp_path / "report.csv"
        assert main(["simulate", str(config), "--out", str(out), "--workers", "2"]) == EXIT_OK
        assert pools == [2]
        assert [r.spec.scenario_id for r in reports] == ["cell0", "cell1", "cell2"]
        assert [r.n_pairs_run for r in reports] == [2, 2, 2]
        serial = list(simulation.run_scenarios(specs, mvlab.table6_panel(), workers=1))
        assert [r.success_pct for r in reports] == [r.success_pct for r in serial]
        assert [r.n_regenerations for r in reports] == [r.n_regenerations for r in serial]
        progress = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in progress[:3]] == ["cell0", "cell1", "cell2"]
        assert progress[3:] == [f"wrote {3 * len(serial[0].success_pct)} rows to {out}"]

    def test_worker_invariance_with_regenerations(self, tmp_path, capsys):
        from mvlab.simulation import default_scenarios

        picked = ("normal_1.05", "gev_1.01_s3", "stable_tight")
        small = [
            dataclasses.replace(s, n_obs=2000, n_pairs=8)
            for s in default_scenarios() if s.scenario_id in picked
        ]
        config = tmp_path / "grid.ini"
        config.write_text(scenario_config_text(small))
        out = tmp_path / "report.csv"
        runs = []
        for workers in ("1", "2", "3"):
            assert main(["simulate", str(config), "--out", str(out), "--workers", workers]) == EXIT_OK
            runs.append((_strip_timestamp(out.read_text()), capsys.readouterr().out))
        assert runs[0] == runs[1] == runs[2]
        progress = runs[0][1]
        regenerations = dict(re.findall(r"^(\S+): 8 pairs, (\d+) regenerations", progress, re.M))
        assert list(regenerations) == list(picked)
        assert int(regenerations["gev_1.01_s3"]) > 0
        assert int(regenerations["stable_tight"]) > 0


class TestDeciles:
    @pytest.fixture
    def returns_file(self, tmp_path):
        rng = spawn_rng(55)
        tickers = [f"S{i:02d}" for i in range(12)]
        dates = [f"{2000 + t // 12}-{t % 12 + 1:02d}-01" for t in range(60)]
        lines = ["date," + ",".join(tickers)]
        cols = [rng.normal(0.01, 0.05, 60) for _ in tickers]
        for t, date in enumerate(dates):
            lines.append(date + "," + ",".join(f"{col[t]:.6f}" for col in cols))
        path = tmp_path / "returns.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_end_to_end(self, returns_file, tmp_path, capsys):
        prefix = tmp_path / "out"
        assert main(["deciles", str(returns_file), "--deciles", "4",
                     "--out", str(prefix)]) == EXIT_OK
        stats = (tmp_path / "out_decile_stats.csv").read_text()
        agreement = (tmp_path / "out_agreement.csv").read_text()
        counts = (tmp_path / "out_agreement_counts.csv").read_text()
        assert "statistic,Dec 1,Dec 2,Dec 3,Dec 4" in stats
        assert stats.count("\nskewness,") == 1
        assert "Dec 1 vs Dec 4" in agreement
        assert "Dec 1 vs Dec 4" in counts

    def test_out_in_missing_directory_usage_error(
        self, returns_file, tmp_path, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("deciles read the panel before checking --out")

        monkeypatch.setattr(mvlab.cli, "load_returns", no_work)
        prefix = tmp_path / "missing" / "d"
        assert main(["deciles", str(returns_file), "--deciles", "4",
                     "--out", str(prefix)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"cannot write {prefix}_decile_stats.csv: directory {prefix.parent} " in err

    def test_crlf_panel_gives_the_same_reports(self, returns_file, tmp_path, capsys):
        lines = returns_file.read_text().splitlines()
        for t, cell in [(3, 2), (10, 5), (10, 12), (40, 1)]:
            fields = lines[t].split(",")
            fields[cell] = ""
            lines[t] = ",".join(fields)
        bodies = []
        for name, end in [("lf", "\n"), ("crlf", "\r\n")]:
            panel = tmp_path / f"{name}.csv"
            panel.write_bytes("".join(line + end for line in lines).encode())
            assert (_returns_block(panel, 13) is None) == (end == "\r\n")
            prefix = tmp_path / name
            argv = ["deciles", str(panel), "--deciles", "4", "--out", str(prefix)]
            assert main(argv) == EXIT_OK
            bodies.append([
                [line for line in (tmp_path / f"{name}{report}.csv").read_text().splitlines()
                 if not line.startswith("#")]
                for report in ("_decile_stats", "_agreement", "_agreement_counts")
            ])
        assert bodies[0] == bodies[1]

    def test_deterministic_rerun(self, returns_file, tmp_path):
        texts = []
        for _ in range(2):
            main(["deciles", str(returns_file), "--deciles", "3",
                  "--out", str(tmp_path / "out")])
            texts.append(_strip_timestamp((tmp_path / "out_agreement.csv").read_text()))
        assert texts[0] == texts[1]

    def test_too_many_deciles_usage_error(self, returns_file, tmp_path):
        assert main(["deciles", str(returns_file), "--deciles", "50",
                     "--out", str(tmp_path / "x")]) == EXIT_USAGE

    def test_bad_returns_ingestion_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,A\n2000-01-01,-1.5\n")
        assert main(["deciles", str(bad), "--out", str(tmp_path / "x")]) == EXIT_INGESTION

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_return_ingestion_error(self, returns_file, tmp_path, capsys, cell):
        lines = returns_file.read_text().splitlines()
        fields = lines[3].split(",")
        fields[5] = cell
        lines[3] = ",".join(fields)
        returns_file.write_text("\n".join(lines) + "\n")
        assert main(["deciles", str(returns_file), "--deciles", "4",
                     "--out", str(tmp_path / "x")]) == EXIT_INGESTION
        err = capsys.readouterr().err
        assert f":4: non-finite return '{cell}' for S04" in err
        assert not (tmp_path / "x_agreement.csv").exists()

    @pytest.mark.parametrize("body", UNREADABLE_CSV_BODIES, ids=UNREADABLE_CSV_IDS)
    def test_unreadable_returns_ingestion_error(self, returns_file, tmp_path, capsys, body):
        returns_file.write_bytes(returns_file.read_bytes() + b"2005-01-01," + body)
        assert main(["deciles", str(returns_file), "--deciles", "4",
                     "--out", str(tmp_path / "x")]) == EXIT_INGESTION
        err = capsys.readouterr().err
        assert err.startswith(f"ingestion error: cannot read returns file {returns_file}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("deciles", ["1", "-3"])
    def test_deciles_below_two_usage_error(self, returns_file, tmp_path, capsys, deciles):
        assert main(["deciles", str(returns_file), "--deciles", deciles,
                     "--out", str(tmp_path / "x")]) == EXIT_USAGE
        assert f"--deciles must be >= 2, got {deciles}" in capsys.readouterr().err


def _fresh_interpreter(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this mvlab."""
    src = str(Path(mvlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return run.stdout.strip()


def test_start_up_imports_no_scipy():
    # SciPy's import alone took about 0.6 s of every command's start-up
    code = (
        "import sys, mvlab.cli; mvlab.cli.build_parser(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _fresh_interpreter(code) == "[]"


def test_mpmath_imported_only_for_gev_moments():
    # mpmath took about 30 ms of every command's start-up; only GEV needs it
    code = (
        "import sys, mvlab.cli; mvlab.cli.build_parser(); print('mpmath' in sys.modules); "
        "from mvlab.distributions import Family, MomentTarget, solve_params_for_moments; "
        "solve_params_for_moments(Family.GEV, MomentTarget(0.01, 0.16, 0.35)); "
        "print('mpmath' in sys.modules)"
    )
    assert _fresh_interpreter(code).split() == ["False", "True"]


def test_pool_with_gev_cells_imports_mpmath_before_forking():
    # each forked worker imported mpmath on its first GEV solve instead,
    # 37-47 ms per worker and run
    code = """
import dataclasses, os, sys
os.cpu_count = lambda: 2
from mvlab.simulation import default_scenarios, pair_results
from mvlab.utilities import table6_panel
cells = {s.family.value: dataclasses.replace(s, n_obs=1000, n_pairs=2) for s in default_scenarios()}
for family in ("normal", "gev"):
    with pair_results([cells["normal"], cells[family]], table6_panel(), workers=2):
        print("mpmath" in sys.modules)
"""
    assert _fresh_interpreter(code).split() == ["False", "True"]
