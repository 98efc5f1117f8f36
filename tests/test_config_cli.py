"""Configuration parsing and the command-line pipeline."""

import csv
import errno
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coinvest.checks as checks_mod
import coinvest.cli as cli_mod
import coinvest.oracle as oracle_mod
import coinvest.sampling as sampling_mod
import coinvest.scenarios as scenarios_mod
from coinvest import (
    __version__,
    ConfigError,
    MarketParams,
    RunConfig,
    ShapleyMethod,
    SupermodularityReport,
    coalition_value,
    config_to_dict,
    parse_config,
    scenario_price_sweep,
    shapley_closed_form,
    shapley_sampling,
)
from coinvest.cli import CSV_COLUMNS
from coinvest.shapley import CoreCheck
from coinvest.config import (
    MAX_GRID_POINTS,
    MAX_PROVIDERS,
    MAX_SAMPLES,
    MAX_SEED,
    MAX_TIMESLOTS,
    config_from_dict,
    load_preset,
    preset_names,
)

from cli_fuzz import CONFIG_FIELD, INVOCATIONS, TEXT_COLUMNS, any_configs, argvs, valid_configs
from cli_pins import PINNED_OUTPUTS, TRANSCRIPTS
from conftest import (
    OFF_BY_CHANCE,
    OVER_BUDGET,
    fresh_interpreter,
    invoke_cli,
    isolated_filesystem,
)

_SHAPED = {"id": "A", "beta": 2e-6, "daily_total": 5e5}

# one config per cap, each one entry or one unit past it, and the field it names
OVER_CAP = [
    pytest.param({"n_sps": [MAX_PROVIDERS + 1]}, "n_sps[0]", id="n_sps-value"),
    pytest.param({"n_sps": [2] * (MAX_GRID_POINTS + 1)}, "n_sps", id="n_sps-length"),
    pytest.param(
        {"scenario": "custom", "custom_sps": [_SHAPED] * (MAX_PROVIDERS + 1)},
        "custom_sps",
        id="custom_sps-length",
    ),
    pytest.param(
        {"l_total_grid": [1e6] * (MAX_GRID_POINTS + 1)}, "l_total_grid", id="l_total_grid"
    ),
    pytest.param({"omega_grid": [0.5] * (MAX_GRID_POINTS + 1)}, "omega_grid", id="omega_grid"),
    pytest.param({"d_grid": [0.05] * (MAX_GRID_POINTS + 1)}, "d_grid", id="d_grid"),
    pytest.param({"market": {"T": MAX_TIMESLOTS + 1}}, "market.T", id="market.T"),
    pytest.param(
        {
            "scenario": "custom",
            "custom_sps": [{"id": "A", "beta": 2e-6, "loads": [1.0] * (MAX_TIMESLOTS + 1)}],
        },
        "custom_sps[0].loads",
        id="loads-length",
    ),
    pytest.param({"seed": MAX_SEED + 1}, "seed", id="seed"),
]


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        assert parse_config("{}") == RunConfig()
        assert parse_config("") == RunConfig()

    def test_reads_files(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"seed": 9}')
        assert parse_config(str(path)).seed == 9
        assert parse_config(path).seed == 9

    def test_directory_is_not_a_config_file(self, tmp_path):
        shown = repr(str(tmp_path))
        refused = f"^config path is not a regular file: {re.escape(shown)}$"
        with pytest.raises(ConfigError, match=refused):
            parse_config(str(tmp_path))
        result = invoke_cli(["run", str(tmp_path)])
        assert result.exit_code == 1
        assert result.stderr == f"Error: config path is not a regular file: {shown}\n"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("no-such-config.json")
        with pytest.raises(ConfigError, match=r"not found: 'a/a/.*\.\.\. \(str, 203 characters in all\)$"):
            parse_config("a/" * 100 + "b")
        # a long path of a file that holds bad JSON is shown cut the same way
        path = tmp_path / ("d" * 100) / ("c" * 100 + ".json")
        path.parent.mkdir()
        path.write_text('{"seed": }')
        with pytest.raises(ConfigError, match=r"characters in all\): invalid JSON at line 1") as err:
            parse_config(str(path))
        assert len(str(err.value)) < 200, str(err.value)

    def test_json_errors_carry_position(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config('{"seed": }')

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config('{"bogus": 1}')
        with pytest.raises(ConfigError, match="spread"):
            parse_config('{"market": {"spread": 1}}')

    def test_validation_names_the_field(self):
        with pytest.raises(ConfigError, match="market.d"):
            parse_config('{"market": {"d": -1}}')
        with pytest.raises(ConfigError, match="omega_grid"):
            parse_config('{"omega_grid": [0.4]}')
        with pytest.raises(ConfigError, match="method"):
            parse_config('{"method": "guess"}')
        with pytest.raises(ConfigError, match="samples"):
            parse_config('{"samples": 0}')
        with pytest.raises(ConfigError, match="'custom_sps' must be a list"):
            parse_config('{"custom_sps": 5}')

    def test_samples_are_capped(self):
        assert parse_config(json.dumps({"samples": MAX_SAMPLES})).samples == MAX_SAMPLES
        with pytest.raises(ConfigError, match=f"'samples' must be <= {MAX_SAMPLES}"):
            parse_config(json.dumps({"samples": MAX_SAMPLES + 1}))

    @pytest.mark.parametrize("data, field", OVER_CAP)
    def test_caps_name_the_field(self, data, field):
        message = f"config field '{re.escape(field)}' (must be <=|may hold at most)"
        with pytest.raises(ConfigError, match=message):
            config_from_dict(data)

    def test_caps_admit_their_bound(self):
        at_cap = config_from_dict(
            {
                "scenario": "custom",
                "market": {"T": MAX_TIMESLOTS},
                "l_total_grid": [1e6] * MAX_GRID_POINTS,
                "omega_grid": [0.5] * MAX_GRID_POINTS,
                "d_grid": [0.05] * MAX_GRID_POINTS,
                "n_sps": [MAX_PROVIDERS] * MAX_GRID_POINTS,
                "custom_sps": [{"id": "B", "beta": 2e-6, "loads": [1.0] * MAX_TIMESLOTS}]
                + [_SHAPED] * (MAX_PROVIDERS - 1),
                "seed": MAX_SEED,
            }
        )
        assert at_cap.market.T == MAX_TIMESLOTS
        assert len(at_cap.custom_sps) == MAX_PROVIDERS
        assert len(at_cap.custom_sps[0].loads) == MAX_TIMESLOTS
        assert len(at_cap.d_grid) == len(at_cap.n_sps) == MAX_GRID_POINTS
        assert at_cap.seed == MAX_SEED

    def test_overrides_are_applied(self):
        cfg = parse_config(
            '{"scenario": "omega", "market": {"xi": 0.002}, '
            '"omega_grid": [0.5, 0.75, 1.0], "method": "sample"}'
        )
        assert cfg.scenario == "omega"
        assert cfg.market.xi == 0.002
        assert cfg.omega_grid == (0.5, 0.75, 1.0)
        assert cfg.method is ShapleyMethod.PERMUTATION_SAMPLING
        with pytest.raises(ConfigError, match=re.escape(
            "config field 'method' must be one of ['closed', 'sample'], got 'enum'"
        )):
            parse_config('{"method": "enum"}')

    def test_custom_scenario_needs_providers(self):
        with pytest.raises(ConfigError, match="custom_sps"):
            parse_config('{"scenario": "custom"}')
        cfg = parse_config(
            '{"scenario": "custom", "custom_sps": ['
            '{"id": "A", "beta": 2e-6, "daily_total": 5e5}]}'
        )
        assert cfg.custom_sps[0].id == "A"
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config('{"custom_sps": [{"id": "A", "beta": 0}]}')

    def test_round_trip_is_a_fixpoint(self):
        cfg = parse_config(
            json.dumps(
                {
                    "scenario": "price-sweep",
                    "n_sps": [2, 4],
                    "seed": 5,
                    "market": {"d": 0.08, "xi": 0.0005},
                    "custom_sps": [{"id": "Z", "beta": 1e-6, "loads": [1.0] * 96}],
                }
            )
        )
        echoed = parse_config(json.dumps(config_to_dict(cfg)))
        assert echoed == cfg
        assert config_to_dict(echoed) == config_to_dict(cfg)


@given(data=valid_configs())
def test_config_round_trip_is_a_fixpoint(data):
    cfg = config_from_dict(data)
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


class TestPresets:
    def test_six_presets_ship(self):
        assert preset_names() == ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")

    def test_presets_parse(self):
        for name in preset_names():
            cfg = parse_config(load_preset(name))
            assert cfg.description

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("fig9")

    @pytest.mark.parametrize(
        "name, shown",
        [
            pytest.param("x" * 300, "'" + "x" * 79 + "... (str, 302 characters in all)",
                         id="too-long-for-a-file-name"),
            pytest.param("../presets/fig1", "'../presets/fig1'", id="relative-path"),
        ],
    )
    def test_preset_outside_the_list_is_unknown(self, name, shown):
        with pytest.raises(ConfigError) as info:
            load_preset(name)
        assert str(info.value) == (
            f"unknown preset {shown}; available: {list(preset_names())!r}"
        )


def run_cli(*args):
    return invoke_cli(args)


SMALL_RUN = json.dumps({"l_total_grid": [1e6, 2e6, 4e6]})

class TestCliRun:
    def test_writes_consistent_outputs(self, tmp_path):
        out = tmp_path / "results"
        result = run_cli("run", SMALL_RUN, "--out", str(out))
        assert result.exit_code == 0, result.output

        with (out / "records.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert tuple(rows[0].keys()) == CSV_COLUMNS
        assert len(rows) == 9  # 3 instances x (2 providers + owner)
        by_value = {}
        for row in rows:
            by_value.setdefault(row["sweep_value"], []).append(row)
        for group in by_value.values():
            total = math.fsum(float(r["shapley"]) for r in group)
            grand = float(group[0]["v_grand"])
            assert abs(total - grand) <= 1e-9 * max(1.0, grand)

        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_checks_passed"]
        assert len(summary["instances"]) == 3
        first = summary["instances"][0]
        assert first["checks"] == {
            "core": "pass",
            "supermodularity": "pass",
            "settlement_balance": "pass",
        }
        assert first["players"]["NO"]["veto"] is True

        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["l_total_grid"] == [1e6, 2e6, 4e6]
        assert meta["seed"] == 0
        assert "load_clamping_applied" not in meta
        assert "load_spec" not in meta["config"]

    def test_identical_runs_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", SMALL_RUN, "--out", str(out_a), "--seed", "3").exit_code == 0
        assert run_cli("run", SMALL_RUN, "--out", str(out_b), "--seed", "3").exit_code == 0
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()

    def test_csv_floats_round_trip(self, tmp_path):
        out = tmp_path / "rt"
        assert run_cli("run", SMALL_RUN, "--out", str(out)).exit_code == 0
        with (out / "records.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        # 17 significant digits reproduce the doubles exactly
        summary = json.loads((out / "summary.json").read_text())
        for row in rows:
            inst = next(
                i for i in summary["instances"]
                if f"{i['sweep_value']:.17g}" == row["sweep_value"]
            )
            player = inst["players"][row["player_id"]]
            assert float(row["shapley"]) == player["shapley"]
            assert float(row["payoff"]) == player["payoff"]
            assert float(row["h_star"]) == player["h_star"]

    def test_runs_presets_by_name(self, tmp_path):
        out = tmp_path / "p"
        result = run_cli("run", "fig4", "--out", str(out))
        assert result.exit_code == 0
        with (out / "records.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        final = [r for r in rows if float(r["sweep_value"]) == 1.0]
        sp1 = next(r for r in final if r["player_id"] == "SP1")
        assert float(sp1["h_star"]) == 0.0

    def test_method_flag(self, tmp_path):
        out = tmp_path / "m"
        result = run_cli("run", SMALL_RUN, "--out", str(out), "--method", "sample")
        assert result.exit_code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["method"] == "sample"
        result = run_cli("run", SMALL_RUN, "--out", str(tmp_path / "e"), "--method", "enum")
        assert result.exit_code == 1, result.output
        assert not (tmp_path / "e").exists()

    def test_custom_scenario(self, tmp_path):
        cfg = json.dumps(
            {
                "scenario": "custom",
                "custom_sps": [
                    {"id": "video", "beta": 3e-6, "daily_total": 8e5},
                    {"id": "ar", "beta": 6e-6, "daily_total": 2e5},
                ],
            }
        )
        out = tmp_path / "c"
        result = run_cli("run", cfg, "--out", str(out))
        assert result.exit_code == 0
        with (out / "records.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [r["player_id"] for r in rows] == ["video", "ar", "NO"]

    def test_values_may_look_like_options(self):
        # an option's value is the next argument, and -- ends the options
        with isolated_filesystem():
            result = invoke_cli(["run", SMALL_RUN, "--out", "--strict", "--seed", "-0"])
            assert result.exit_code == 0, result.output
            assert json.loads(Path("--strict", "meta.json").read_text())["strict"] is False
        result = invoke_cli(["run", "--", "--bogus"])
        assert result.exit_code == 1
        assert "Error: config file not found: '--bogus'" in result.output

    def test_validation_error_exits_1(self, tmp_path):
        result = invoke_cli(["run", '{"market": {"d": -1}}'])
        assert result.exit_code == 1
        assert "market.d" in result.output

    def test_negative_seed_exits_1(self, tmp_path):
        out = str(tmp_path / "n")
        for args in (
            ["run", '{"seed": -1}', "--out", out],
            ["run", SMALL_RUN, "--out", out, "--seed", "-1"],
            ["run", SMALL_RUN, "--out", out, "--method", "sample", "--seed", "-1"],
            ["verify", '{"seed": -1}'],
        ):
            result = run_cli(*args)
            assert result.exit_code == 1, args
            assert "seed" in result.output, args
        assert not (tmp_path / "n").exists()

    def test_seed_option_is_bounded(self, tmp_path):
        # every one of the three instances samples with seed 2^63 - 1
        out = tmp_path / "m"
        top = run_cli("run", SMALL_RUN, "--out", str(out), "--method", "sample",
                      "--seed", str(MAX_SEED))
        assert top.exit_code == 0, top.output
        assert json.loads((out / "meta.json").read_text())["seed"] == MAX_SEED
        over = run_cli("run", SMALL_RUN, "--out", str(tmp_path / "o"), "--seed",
                       str(MAX_SEED + 1))
        assert over.exit_code == 1
        assert "'--seed'" in over.output
        assert not (tmp_path / "o").exists()

    def test_overflowing_provider_exits_1(self, tmp_path):
        cfg = json.dumps(
            {
                "scenario": "custom",
                "custom_sps": [{"id": "huge", "beta": 1e300, "daily_total": 1e300}],
            }
        )
        out = tmp_path / "o"
        for args in (["run", cfg, "--out", str(out)], ["verify", cfg]):
            result = run_cli(*args)
            assert result.exit_code == 1, args
            assert "custom_sps" in result.output and "'huge'" in result.output
        assert not out.exists()

    def test_overflowing_grand_value_exits_1(self, tmp_path):
        # each provider's profit is finite, their sum is not
        cfg = json.dumps(
            {
                "scenario": "custom",
                "custom_sps": [
                    {"id": "a", "beta": 1e303, "daily_total": 450},
                    {"id": "b", "beta": 1e303, "daily_total": 450},
                ],
            }
        )
        out = tmp_path / "o"
        for args in (["run", cfg, "--out", str(out)], ["verify", cfg]):
            result = run_cli(*args)
            assert result.exit_code == 1, args
            assert "custom_sps" in result.output and "['a', 'b']" in result.output
            assert "Traceback" not in result.output
        assert not out.exists()

    def test_infinite_optimum_exits_1(self, tmp_path):
        # beta*L and the gain D*xi*beta*L/d are finite, h* = ln(gain)/xi is not
        cfg = json.dumps(
            {
                "scenario": "custom",
                "market": {"xi": 1e-308, "d": 1e-10},
                "custom_sps": [{"id": "a", "beta": 2.74e290, "daily_total": 1e6}],
            }
        )
        out = tmp_path / "o"
        for args in (["run", cfg, "--out", str(out)], ["verify", cfg]):
            result = run_cli(*args)
            assert result.exit_code == 1, args
            assert "custom_sps: provider 'a': " in result.output, result.output
            assert "market" in result.output, result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "data, named",
        [
            pytest.param({"seed": 10**4000}, "'seed'", id="long-integer"),
            pytest.param({"description": [k / 7 for k in range(10**4)]}, "'description'",
                         id="long-list"),
            pytest.param({"scenario": json.loads("[" * 900 + "]" * 900)}, "'scenario'",
                         id="deep-list"),
        ],
    )
    def test_oversized_value_gives_a_short_error(self, tmp_path, data, named):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        result = run_cli("run", str(path), "--out", str(tmp_path / "o"))
        assert result.exit_code == 1
        assert named in result.output
        assert len(result.output.encode()) < 1024, result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "providers, named",
        [
            pytest.param([{"id": f"p{k:04d}", "beta": 1e303, "daily_total": 450}
                          for k in range(1000)], "largest finite float", id="grand-overflow"),
            pytest.param([{"id": "x" * 10**5, "beta": 1e300, "daily_total": 1e300}],
                         "standalone optimum", id="long-id"),
            pytest.param([{"id": "x" * 10**5, "beta": 1e-6, "daily_total": 1e6}] * 2
                         + [{"id": "y", "beta": 1e-6, "daily_total": 1e6}],
                         "more than once", id="repeated-long-id"),
        ],
    )
    def test_game_error_stays_short(self, tmp_path, providers, named):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"scenario": "custom", "custom_sps": providers}))
        result = fresh_interpreter("-m", "coinvest", "run", str(path),
                                   "--out", str(tmp_path / "o"))
        output = result.stdout + result.stderr
        assert result.returncode == 1, output
        assert "custom_sps" in output and named in output, output
        # only the repeated ids are named
        assert "'y'" not in output
        assert len(output.encode()) < 1024, output
        assert not (tmp_path / "o").exists()

    def test_short_value_is_echoed_whole(self):
        with pytest.raises(ConfigError) as info:
            config_from_dict({"description": [1.5, 2.5]})
        assert str(info.value) == "config field 'description' must be a string, got [1.5, 2.5]"

    def test_load_spec_slot_mismatch_exits_1(self, tmp_path):
        # the shape takes its slots from the market, and there is no load_spec
        # to give it others, even where they equal market.T
        out = tmp_path / "t"
        for spec_slots in (24, 96):
            cfg = json.dumps({"load_spec": {"T": spec_slots}})
            for args in (["run", cfg, "--out", str(out)], ["verify", cfg]):
                result = run_cli(*args)
                assert result.exit_code == 1, args
                assert "unknown key ['load_spec'] in the top-level config" in result.output
                assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec", [{}, {"a0": 2.0}, {"components": [[0.5, 10]]}, {"a0": -5.0}, []]
    )
    def test_a_load_spec_exits_1(self, tmp_path, spec):
        # the daily shape is built in: a load_spec, even an empty one, is an unknown key
        cfg = json.dumps({"load_spec": spec})
        out = tmp_path / "s"
        for args in (["run", cfg, "--out", str(out)], ["verify", cfg]):
            result = run_cli(*args)
            assert result.exit_code == 1, args
            assert result.output.startswith(
                "Error: unknown key ['load_spec'] in the top-level config; allowed: ["
            ), result.output
            assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, named",
        [
            pytest.param(b'{"l_total": 1' + b"0" * 400 + b"}", "'l_total'", id="past-float-range"),
            pytest.param(b'{"l_total": 1' + b"0" * 5000 + b"}", None, id="past-digit-limit"),
            pytest.param(
                b'{"n_sps": ' + b"[" * 200_000 + b"]" * 200_000 + b"}", None, id="nested-too-deep"
            ),
            pytest.param(b'{"description": "caf\xe9"}', None, id="not-utf-8"),
        ],
    )
    def test_input_the_decoders_refuse_exits_1(self, tmp_path, content, named):
        # named: the field the message names; None: it names the config file
        path = tmp_path / "config.json"
        path.write_bytes(content)
        out = tmp_path / "r"
        for args in (["run", str(path), "--out", str(out)], ["verify", str(path)]):
            result = run_cli(*args)
            assert result.exit_code == 1, args
            assert (named or str(path)) in result.output, result.output
        assert not out.exists()

    def test_sampling_seed_is_shared_across_price_sweep_groups(self, tmp_path):
        # two groups of one identical game each: every instance samples with
        # the config's seed, so both draw the same orders and get one estimate
        data = {"scenario": "price-sweep", "n_sps": [2, 2], "d_grid": [0.05],
                "method": "sample", "samples": 200, "seed": 7}
        out = tmp_path / "g"
        result = run_cli("run", json.dumps(data), "--out", str(out))
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        game = scenario_price_sweep(2, [0.05], RunConfig().l_total)[0]
        expected = shapley_sampling(game, 200, 7).payoffs
        assert [
            {pid: p["shapley"] for pid, p in instance["players"].items()}
            for instance in summary["instances"]
        ] == [expected, expected]

    @pytest.mark.parametrize(
        "scenario, field",
        [("same-type", "l_total_grid[0]"), ("omega", "omega_grid[0]"), ("price-sweep", "d_grid")],
    )
    def test_overflowing_scenario_instance_exits_1(self, tmp_path, scenario, field):
        # the benefit factor is pinned to d / (D*T), so xi * beta * L overflows
        cfg = json.dumps({"scenario": scenario, "market": {"d": 1e300, "xi": 1e150}})
        out = tmp_path / "o"
        for args in (["run", cfg, "--out", str(out)], ["verify", cfg]):
            result = run_cli(*args)
            assert result.exit_code == 1, args
            assert "market" in result.output and field in result.output, result.output
            assert "Traceback" not in result.output
        assert not out.exists()

    def test_zero_daily_total_gives_zero_rows(self, tmp_path):
        cfg = json.dumps({
            "scenario": "custom",
            "custom_sps": [
                {"id": "a", "beta": 2e-6, "daily_total": 0.0},
                {"id": "b", "beta": 2e-6, "daily_total": 1e6},
            ],
        })
        out = tmp_path / "z"
        result = run_cli("run", cfg, "--out", str(out))
        assert result.exit_code == 0, result.output
        rows = {r["player_id"]: r for r in csv.DictReader((out / "records.csv").open())}
        # signed zeros would print as -0
        zeros = [rows["a"][key] for key in ("daily_load", "h_star", "r_hat", "shapley")]
        assert zeros == ["0"] * 4
        assert float(rows["b"]["daily_load"]) == pytest.approx(1e6, rel=1e-12)

    @pytest.mark.parametrize(
        "config, fields",
        [
            # every slot is finite, their sum is not
            (
                {
                    "scenario": "custom",
                    "market": {"T": 24},
                    "custom_sps": [{"id": "a", "daily_total": 1.7976931348623157e308}],
                },
                "custom_sps[0].daily_total",
            ),
            (
                {"scenario": "custom", "custom_sps": [{"id": "a", "loads": [1e307] * 96}]},
                "custom_sps[0].loads",
            ),
        ],
    )
    def test_overflowing_daily_total_exits_1(self, tmp_path, config, fields):
        cfg = json.dumps(config)
        out = tmp_path / "d"
        for args in (["run", cfg, "--out", str(out)], ["verify", cfg]):
            result = run_cli(*args)
            assert result.exit_code == 1, args
            assert fields in result.output and "overflows" in result.output, result.output
        assert not out.exists()

    def test_too_many_samples_exit_1_before_any_work(self, tmp_path, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(sampling_mod, "shapley_sampling", no_sampling)
        cfg = json.dumps({"l_total_grid": [2e6], "samples": MAX_SAMPLES + 1})
        out = tmp_path / "s"
        for args in (
            ["run", cfg, "--out", str(out), "--method", "sample"],
            ["verify", cfg],
        ):
            result = run_cli(*args)
            assert result.exit_code == 1, args
            assert "samples" in result.output, result.output
        assert not out.exists()

    def test_enum_is_refused_before_solving(self, tmp_path, monkeypatch):
        def no_solving(*args, **kwargs):
            raise AssertionError("solving started")

        monkeypatch.setattr(cli_mod, "run_sweep", no_solving)
        small = {"l_total_grid": [2e6]}
        out = tmp_path / "e"
        for args, message in (
            (["run", json.dumps({**small, "method": "enum"}), "--out", str(out)],
             "config field 'method' must be one of ['closed', 'sample'], got 'enum'"),
            (["run", json.dumps(small), "--out", str(out), "--method", "enum"],
             "Invalid value for '--method': 'enum' is not one of 'closed', 'sample'."),
        ):
            result = run_cli(*args)
            assert result.exit_code == 1, args
            assert message in result.output, result.output
            assert "Traceback" not in result.output, result.output
        assert not out.exists()

    def test_run_never_builds_the_coalition_table(self, tmp_path, monkeypatch):
        def no_table(x):
            raise AssertionError("coalition table built")

        monkeypatch.setattr(oracle_mod, "_fsum_subset_sums", no_table)
        # 22 players, past the enumeration bound, no two profits alike
        wide = json.dumps({
            "scenario": "custom",
            "samples": 2000,
            "custom_sps": [
                {"id": f"SP{k:02d}", "beta": 2e-6 * (1 + k / 21), "daily_total": 5e5 * (1 + k / 7)}
                for k in range(21)
            ],
        })
        for config in (*preset_names(), wide):
            for method in ("closed", "sample"):
                out = tmp_path / method
                result = run_cli("run", config, "--out", str(out), "--method", method)
                assert result.exit_code == 0, (config, method, result.output)

    @pytest.mark.parametrize("config", ["a" * 300, "a/" * 3000], ids=["300", "6000"])
    def test_an_overlong_config_argument_exits_1(self, config):
        # past the OS name limit, where even the stat of the path raises
        for command in ("run", "verify"):
            result = run_cli(command, config)
            assert result.exit_code == 1, result.output
            assert "Traceback" not in result.output
            assert result.output.count("\n") == 1 and len(result.output) < 200, result.output
            assert result.output.startswith("Error: cannot read config file 'a"), result.output

    @pytest.mark.parametrize("data, field", OVER_CAP)
    def test_over_cap_exits_1_before_any_work(self, tmp_path, monkeypatch, data, field):
        def no_work(*args, **kwargs):
            raise AssertionError("instances built")

        monkeypatch.setattr(cli_mod, "_build_groups", no_work)
        cfg = json.dumps(data)
        out = tmp_path / "s"
        for args in (["run", cfg, "--out", str(out)], ["verify", cfg]):
            result = run_cli(*args)
            assert result.exit_code == 1, args
            assert f"'{field}'" in result.output, result.output
        assert not out.exists()

    def test_io_error_exits_3(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        result = invoke_cli(["run", SMALL_RUN, "--out", str(blocker)])
        assert result.exit_code == 3

    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("refused")

        monkeypatch.setattr(os, "replace", refuse)
        out = tmp_path / "out"
        result = invoke_cli(["run", SMALL_RUN, "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert "refused" in result.stderr
        assert list(out.iterdir()) == []

    def test_a_full_disk_leaves_the_previous_outputs(self, tmp_path, monkeypatch):
        # every output is written before any replaces its target, so a disk
        # that fills on the second file leaves the last run's three files
        out = tmp_path / "out"
        assert invoke_cli(["run", "fig1", "--out", str(out)]).exit_code == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        opened = []
        fdopen = os.fdopen

        class Full:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def filling(fd, *args, **kwargs):
            handle = fdopen(fd, *args, **kwargs)
            opened.append(handle)
            return Full(handle) if len(opened) == 2 else handle

        monkeypatch.setattr(os, "fdopen", filling)
        result = invoke_cli(["run", "fig6", "--out", str(out)])
        monkeypatch.undo()
        assert result.exit_code == 3, result.output
        assert os.strerror(errno.ENOSPC) in result.stderr
        assert len(opened) == 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert sorted(before) == ["meta.json", "records.csv", "summary.json"]

    def test_strict_flags_injected_check_failure(self, tmp_path, monkeypatch):
        def broken_check(game, **kwargs):
            return SupermodularityReport(
                holds=False,
                counterexample=("SP1", frozenset(), frozenset({"NO"})),
            )

        # run decides supermodularity structurally
        monkeypatch.setattr(checks_mod, "check_supermodularity_structural", broken_check)
        out = tmp_path / "s"
        strict = invoke_cli(["run", SMALL_RUN, "--out", str(out), "--strict"])
        assert strict.exit_code == 2
        assert "supermodularity" in strict.output
        relaxed = invoke_cli(["run", SMALL_RUN, "--out", str(out)])
        assert relaxed.exit_code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["all_checks_passed"]


@pytest.mark.parametrize("args, digests", PINNED_OUTPUTS)
def test_run_writes_the_pinned_bytes(args, digests):
    """Every byte of the three output files, by sha256. meta.json records the
    output directory, so each run writes to ``out`` in a fresh directory."""
    with isolated_filesystem():
        result = run_cli("run", *args, "--out", "out")
        assert result.exit_code == 0, result.output
        written = tuple(
            hashlib.sha256(Path("out", name).read_bytes()).hexdigest()
            for name in ("records.csv", "summary.json", "meta.json")
        )
    assert written == digests


def test_the_first_sampled_instance_keeps_its_rows():
    """The header and instance 0's rows of ``fig1 --method sample --seed 3``,
    by sha256, as pinned when the orders were first drawn from MT19937
    bit-planes. Instance 0 samples with the config's seed, as it did when
    instance k sampled with seed + k, so only the stream changes these rows."""
    with isolated_filesystem():
        result = run_cli("run", "fig1", "--method", "sample", "--seed", "3", "--out", "out")
        assert result.exit_code == 0, result.output
        lines = Path("out", "records.csv").read_bytes().splitlines(keepends=True)
    assert hashlib.sha256(b"".join(lines[:4])).hexdigest() == (
        "fb702803288831fdf4907db15040ec02d00c600254d1c0a0773a1de405cef236"
    )


class TestCliVerifyAndPresets:
    def test_verify_reports_four_properties(self):
        result = run_cli(
            "verify", json.dumps({"l_total_grid": [2e6, 5e6], "samples": 20000})
        )
        assert result.exit_code == 0, result.output
        for line in ("supermodularity", "core-membership", "oracle-triangle", "settlement-balance"):
            assert line in result.output
        assert result.output.count("PASS") == 4
        assert "FAIL" not in result.output

    def test_verify_handles_seven_providers(self):
        cfg = json.dumps(
            {"scenario": "price-sweep", "n_sps": [7], "d_grid": [0.05], "samples": 5000}
        )
        result = run_cli("verify", cfg)
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 4

    @pytest.mark.parametrize("samples", [1, 2, 3, 5])
    def test_verify_passes_at_a_handful_of_orders(self, samples):
        # the standard errors are exact, so a few orders give wide ones, never
        # zero: below 6 orders no estimate can be more than 4 of them off
        result = run_cli("verify", json.dumps({"samples": samples}))
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 4

    def test_verify_zero_load_passes_trivially(self):
        result = run_cli("verify", json.dumps({"l_total_grid": [0.0], "samples": 100}))
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 4

    def test_verify_detects_injected_failure(self, monkeypatch):
        exact_pass = oracle_mod.supermodularity_and_enumeration

        def broken_pass(table):
            report = SupermodularityReport(
                holds=False,
                counterexample=("SP1", frozenset(), frozenset({"NO"})),
            )
            return report, exact_pass(table)[1]

        monkeypatch.setattr(oracle_mod, "supermodularity_and_enumeration", broken_pass)
        result = invoke_cli(["verify", json.dumps({"l_total_grid": [2e6], "samples": 1000})])
        assert result.exit_code == 2
        assert "FAIL" in result.output

    def test_verify_passes_at_huge_scale(self):
        # v(N) near 1e302: absolute tolerances and squared marginals both broke here
        cfg = json.dumps(
            {
                "scenario": "custom",
                "custom_sps": [
                    {"id": pid, "beta": beta, "daily_total": 1e150}
                    for pid, beta in (("a", 1e150), ("b", 1.5e150), ("c", 2e150))
                ],
                "samples": 2000,
            }
        )
        result = run_cli("verify", cfg)
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 4

    def test_settlement_balance_follows_the_revenues(self, tmp_path):
        # revenues near 1e304 against a capacity bill near 7e4
        cfg = json.dumps({"l_total_grid": [1e308], "samples": 2000})
        result = run_cli("verify", cfg)
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 4
        out = tmp_path / "huge"
        strict = run_cli("run", cfg, "--out", str(out), "--strict")
        assert strict.exit_code == 0, strict.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["instances"][0]["checks"]["settlement_balance"] == "pass"

    def test_verify_fails_on_nonfinite_stderr(self, monkeypatch):
        def blind_sampler(game, samples, seed=0):
            result = shapley_closed_form(game)
            return result._replace(stderr={pid: math.nan for pid in game.players})

        monkeypatch.setattr(sampling_mod, "shapley_sampling", blind_sampler)
        result = invoke_cli(["verify", json.dumps({"l_total_grid": [2e6], "samples": 100})])
        assert result.exit_code == 2
        assert "oracle-triangle        FAIL" in result.output
        assert "stderr is not finite" in result.output

    @staticmethod
    def _spread_profits(*gains):
        """Custom providers at the default market whose gains D*xi*beta*L/d are ``gains``."""
        market = MarketParams()
        scale = market.d / (market.D * market.xi) / 1e6
        return json.dumps(
            {
                "scenario": "custom",
                "custom_sps": [
                    {"id": pid, "beta": gain * scale, "daily_total": 1e6}
                    for pid, gain in zip("ab", gains)
                ],
                "samples": 2000,
            }
        )

    def test_verify_passes_on_profits_nine_decades_apart(self):
        # m_a ~ 4.7 and m_b ~ 5e9: enumeration's payoff for 'a' misses by a
        # fraction of an ulp of v(N), far more than 1e-9 of its own size
        result = run_cli("verify", self._spread_profits(1.5, 1e8))
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 4

    def test_verify_still_catches_a_closed_form_off_by_more_than_rounding(self, monkeypatch):
        # verify checks the shapley column the solve writes, so the shift goes there
        real = scenarios_mod.shapley_closed_form

        def shifted(game):
            result = real(game)
            grand = coalition_value(game, game.players)
            payoffs = dict(result.payoffs)
            payoffs["a"] += 100 * len(game.players) * math.ulp(grand)
            return result._replace(payoffs=payoffs)

        monkeypatch.setattr(scenarios_mod, "shapley_closed_form", shifted)
        result = run_cli("verify", self._spread_profits(1.5, 1e8))
        assert result.exit_code == 2
        assert "closed form vs enumeration diverges for a" in result.output

    def test_verify_catches_a_shapley_column_written_high(self, monkeypatch):
        # every shapley cell the solve writes 0.1% high, payoffs and payments
        # unchanged: the core and settlement still pass, the triangle must not
        real = scenarios_mod._solve_one

        def inflated(*args):
            record = real(*args)
            players = tuple(p._replace(shapley=p.shapley * 1.001) for p in record.players)
            return record._replace(players=players)

        monkeypatch.setattr(scenarios_mod, "_solve_one", inflated)
        result = run_cli("verify", "fig1")
        assert result.exit_code == 2, result.output
        assert "closed form vs enumeration diverges" in result.output

    def test_presets_listing(self):
        result = run_cli("presets")
        assert result.exit_code == 0
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6"):
            assert name in result.output

    def test_module_entry_point(self, tmp_path):
        proc = fresh_interpreter("-m", "coinvest", "presets")
        assert proc.returncode == 0
        assert "fig1" in proc.stdout

    def test_verify_names_both_verdicts_when_they_disagree(self, monkeypatch):
        cfg = json.dumps({"l_total_grid": [2e6, 3e6], "samples": 1000})
        monkeypatch.setattr(
            checks_mod, "check_core_structural", lambda game, payoffs: CoreCheck(False, None)
        )
        result = invoke_cli(["verify", cfg])
        assert result.exit_code == 2
        assert (
            "core-membership        FAIL  (0/2 instances; instance 0: structural verdict "
            "'fail: blocked by efficiency' but brute-force verdict 'pass')"
        ) in result.output
        assert "supermodularity        PASS  (2/2 instances)" in result.output

    def test_verify_names_skipped_checks_on_stderr(self):
        # instance 0 has 21 players, past the enumeration bound; instance 1 has 3
        cfg = json.dumps(
            {"scenario": "price-sweep", "n_sps": [20, 2], "d_grid": [0.05], "samples": 500}
        )
        result = invoke_cli(["verify", cfg])
        assert result.exit_code == 0, result.output
        assert result.stdout == (
            "supermodularity        PASS  (2/2 instances)\n"
            "core-membership        PASS  (2/2 instances)\n"
            "oracle-triangle        PASS  (2/2 instances)\n"
            "settlement-balance     PASS  (2/2 instances)\n"
        )
        assert result.stderr == (
            "oracle-triangle: passed in part on 1/2 instances; "
            "instance 0: enumeration leg skipped (21 players exceeds the enumeration bound)\n"
        )

    def test_run_decides_checks_past_the_enumeration_bound(self, tmp_path):
        cfg = json.dumps(
            {
                "scenario": "custom",
                "custom_sps": [
                    {"id": f"SP{k:02d}", "beta": 2e-6, "daily_total": 5e5 + k} for k in range(20)
                ],
                "samples": 1000,
            }
        )
        out = tmp_path / "wide"
        result = run_cli("run", cfg, "--out", str(out), "--strict")
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        [instance] = summary["instances"]
        assert instance["checks"] == {
            "core": "pass",
            "supermodularity": "pass",
            "settlement_balance": "pass",
        }
        assert len(instance["players"]) == 21
        assert {(p["veto"], p["null"]) for p in instance["players"].values()} == {
            (True, False),
            (False, False),
        }
        assert summary["check_methods"] == checks_mod.RUN_METHODS
        assert set(summary["check_methods"].values()) == {"structural", "direct"}
        result = run_cli("verify", cfg)
        assert result.exit_code == 0, result.output
        assert "supermodularity        PASS  (1/1 instances)" in result.output
        assert "core-membership        PASS  (1/1 instances)" in result.output
        assert "oracle-triangle        PASS  (1/1 instances)" in result.output

    def test_verify_past_the_budget_reads_tuples_without_numpy(self):
        # past the budget verify reads ndarrays if numpy is installed and
        # tuples if not, and prints the same lines either way; without numpy
        # it also names the extra that installs it, on stderr
        without_numpy = (
            "import runpy, sys\n"
            "sys.modules['numpy'] = None\n"
            "runpy.run_module('coinvest', run_name='__main__')\n"
        )
        bare = fresh_interpreter("-c", without_numpy, "verify", OVER_BUDGET)
        assert bare.returncode == 0, bare.stderr
        assert bare.stderr == (
            f"verify: {17 << 17} units of exact work, past the budget of "
            f"{cli_mod.LIST_TABLE_BUDGET}, run on tuple tables since numpy is not "
            "installed; pip install 'coinvest[fast]' runs them on ndarrays\n"
        )
        assert bare.stdout == fresh_interpreter("-m", "coinvest", "verify", OVER_BUDGET).stdout

    def test_verify_reads_tuple_tables_up_to_the_budget(self, monkeypatch):
        # a 10-player instance is 10 * 2^10 units of exact work: the sweep of
        # the most prices within the budget reads tuples, one price more
        # ndarrays, and forced onto the other kind, each prints the same lines
        most = cli_mod.LIST_TABLE_BUDGET // (10 << 10)
        build, kinds = oracle_mod.coalition_table, []

        def recording(game, array=True):
            table = build(game, array)
            kinds.append(type(table.values))
            return table

        monkeypatch.setattr(oracle_mod, "coalition_table", recording)
        for prices, kind, other, forcing in (
            (most, tuple, np.ndarray, 0),
            (most + 1, np.ndarray, tuple, 10**18),
        ):
            config = json.dumps({
                "scenario": "price-sweep",
                "n_sps": [9],
                "d_grid": [0.005 * (k + 1) for k in range(prices)],
                "samples": 200,
            })
            kinds.clear()
            picked = run_cli("verify", config)
            assert picked.exit_code == 0, picked.output
            assert kinds == [kind] * prices
            kinds.clear()
            with monkeypatch.context() as forced:
                forced.setattr(cli_mod, "LIST_TABLE_BUDGET", forcing)
                assert run_cli("verify", config) == picked
            assert kinds == [other] * prices

    def test_sampled_payoffs_pass_strict_checks(self, tmp_path):
        # a sampled provider payoff lies in [0, m_i] and the owner takes the
        # rest, so the estimates are always in the core
        out = tmp_path / "sample"
        proc = fresh_interpreter(
            "-m", "coinvest", "run", "fig1", "--method", "sample", "--strict", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert {i["checks"]["core"] for i in summary["instances"]} == {"pass"}


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args, named",
        [
            pytest.param([], "Usage:", id="bare"),
            pytest.param(["run"], "'CONFIG'", id="run-without-config"),
            pytest.param(["verify"], "'CONFIG'", id="verify-without-config"),
            pytest.param(["run", "fig1", "--bogus"], "'--bogus'", id="unknown-option"),
            pytest.param(["bogus"], "'bogus'", id="unknown-command"),
            pytest.param(["run", "fig1", "--seed", "abc"], "'--seed'", id="seed-not-an-integer"),
            pytest.param(["run", "fig1", "--method", "xx"], "'--method'", id="unknown-method"),
            # argparse would take an option's prefix for the option
            pytest.param(["run", "fig1", "--meth", "sample"], "'--meth'", id="option-prefix"),
            pytest.param(
                ["run", "fig1", "--seed", "-1"],
                f"Invalid value for '--seed': -1 is not in the range 0<=x<={MAX_SEED}.\n",
                id="seed-below-range",
            ),
            pytest.param(
                ["run", "fig1", "--seed", str(MAX_SEED + 1)],
                f"Invalid value for '--seed': {MAX_SEED + 1} is not in the range "
                f"0<=x<={MAX_SEED}.\n",
                id="seed-above-range",
            ),
        ],
    )
    def test_usage_error_exits_1(self, args, named):
        # exit 2 means a failed property check, so a usage error is a validation error
        proc = fresh_interpreter("-m", "coinvest", *args)
        assert proc.returncode == 1, proc.stderr
        assert named in proc.stderr and "Traceback" not in proc.stderr, proc.stderr

    def test_seed_is_named_an_integer(self):
        # the option takes one integer, so neither message nor help says "range"
        proc = fresh_interpreter("-m", "coinvest", "run", "fig1", "--seed", "abc")
        assert proc.returncode == 1, proc.stderr
        assert "Invalid value for '--seed': 'abc' is not a valid integer.\n" in proc.stderr
        proc = fresh_interpreter("-m", "coinvest", "run", "--help")
        assert proc.returncode == 0, proc.stderr
        assert "--seed INTEGER " in proc.stdout and "RANGE" not in proc.stdout
        assert f"[0<=x<={MAX_SEED}]" in proc.stdout

    @pytest.mark.parametrize(
        "args, shown",
        [
            pytest.param(
                ["--help"],
                [
                    "presets List the configuration presets shipped with the package.",
                    "run Solve the configured scenario and write records.csv,",
                    "verify Run the property suite on the configured instances and report",
                ],
                id="args0",
            ),
            pytest.param(["--version"], [], id="args1"),
            pytest.param(
                ["run", "--help"],
                [
                    "--out TEXT ",
                    "--strict ",
                    "--seed INTEGER ",
                    f"[0<=x<={MAX_SEED}]",
                    "--method [closed|sample]",
                    "CONFIG is a preset name, a JSON file path, or inline JSON.",
                ],
                id="args2",
            ),
            pytest.param(
                ["verify", "--help"],
                [
                    "Properties: supermodularity of every instance, core membership of the "
                    "Shapley payoffs, agreement of the three Shapley routes, and settlement "
                    "balance."
                ],
                id="args3",
            ),
        ],
    )
    def test_help_and_version_exit_0(self, args, shown):
        proc = fresh_interpreter("-m", "coinvest", *args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout
        if args == ["--version"]:
            assert proc.stdout == f"coinvest, version {__version__}\n"
        # help text may wrap anywhere
        words = " ".join(proc.stdout.split())
        for text in shown:
            assert text in words, (text, proc.stdout)

    @pytest.mark.parametrize("args, code, stdout, stderr", TRANSCRIPTS)
    def test_output_bytes_are_pinned(self, tmp_path, args, code, stdout, stderr):
        # help is wrapped to the terminal width, which COLUMNS sets
        env = {**os.environ, "COLUMNS": "80"}
        proc = fresh_interpreter("-m", "coinvest", *args, env=env, cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)


class TestFreshProcess:
    """A fresh ``python -m coinvest`` against the same command run in-process:
    the exit path (atexit hooks, stdio flushing, exit code) loses nothing."""

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_outputs_get_the_mode_open_gives(self, tmp_path, umask, mode):
        # 0o666 less the umask, where a file made by mkstemp would be 0o600
        proc = fresh_interpreter("-m", "coinvest", "run", "fig1", "--out", "out",
                                 cwd=tmp_path, umask=umask)
        assert proc.returncode == 0, proc.stderr
        modes = {f.name: stat.S_IMODE(f.stat().st_mode) for f in (tmp_path / "out").iterdir()}
        assert modes == dict.fromkeys(("records.csv", "summary.json", "meta.json"), mode)

    def test_run_writes_the_in_process_bytes(self, tmp_path):
        # meta.json records the output directory, so both runs write to one
        out = tmp_path / "out"
        proc = fresh_interpreter("-m", "coinvest", "run", "fig6", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        fresh = out.rename(tmp_path / "fresh")
        result = run_cli("run", "fig6", "--out", str(out))
        assert result.exit_code == 0, result.output
        assert proc.stdout == result.stdout == f"wrote 60 records to {out / 'records.csv'}\n"
        assert proc.stderr == result.stderr == ""
        for name in ("records.csv", "summary.json", "meta.json"):
            assert (fresh / name).read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.parametrize(
        "config, code, stdout, stderr",
        [
            pytest.param(
                "fig1",
                0,
                "supermodularity        PASS  (10/10 instances)\n"
                "core-membership        PASS  (10/10 instances)\n"
                "oracle-triangle        PASS  (10/10 instances)\n"
                "settlement-balance     PASS  (10/10 instances)\n",
                "",
                id="fig1",
            ),
            pytest.param(
                OFF_BY_CHANCE,
                2,
                "supermodularity        PASS  (1/1 instances)\n"
                "core-membership        PASS  (1/1 instances)\n"
                "oracle-triangle        FAIL  (0/1 instances; instance 0: sampling off by more "
                "than 4 standard errors for SP14)\n"
                "settlement-balance     PASS  (1/1 instances)\n",
                "",
                id="off-by-chance-fails",
            ),
        ],
    )
    def test_verify_prints_the_in_process_lines(self, config, code, stdout, stderr):
        proc = fresh_interpreter("-m", "coinvest", "verify", config)
        result = invoke_cli(["verify", config])
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)
        assert (result.exit_code, result.stdout, result.stderr) == (code, stdout, stderr)

    def test_a_closed_stdout_exits_1_quietly(self):
        src = str(Path(cli_mod.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "coinvest", "presets"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        proc.stdout.close()  # before the child can write its first line
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), stderr) == (1, b"")



class TestInProcessHooks:
    """The surface bench/run.py and bench/spans.py use in-process: they call
    ``main.main(args=..., prog_name=..., standalone_mode=False)`` and wrap
    ``run.callback`` and ``verify.callback``."""

    @pytest.mark.parametrize("name", ["run", "verify"])
    def test_main_calls_the_callback_set_on_the_command(self, name, tmp_path):
        command = getattr(cli_mod, name)
        original = command.callback
        calls = []

        def wrapper(**keywords):
            calls.append(keywords)
            return original(**keywords)

        config = json.dumps({"l_total_grid": [2e6], "samples": 200})
        args = [name, config] + (["--out", str(tmp_path)] if name == "run" else [])
        command.callback = wrapper
        try:
            assert cli_mod.main.main(args=args, prog_name="coinvest", standalone_mode=False) is None
        finally:
            command.callback = original
        assert [keywords["config"] for keywords in calls] == [config]

    @pytest.mark.parametrize(
        "args, code, named",
        [
            pytest.param(["verify", OFF_BY_CHANCE], 2, "oracle-triangle        FAIL",
                         id="verify-fails"),
            pytest.param(["run", "fig1", "--bogus"], 1, "No such option '--bogus'.",
                         id="usage-error"),
            pytest.param(["run", '{"bogus": 1}'], 1, "Error: ", id="config-error"),
        ],
    )
    def test_failures_raise_system_exit(self, args, code, named, capsys):
        with pytest.raises(SystemExit) as info:
            cli_mod.main.main(args=args, prog_name="coinvest", standalone_mode=False)
        assert info.value.code == code
        captured = capsys.readouterr()
        assert named in captured.out + captured.err

    def test_an_interrupt_exits_1_only_standalone(self, monkeypatch, capsys):
        def interrupted(**keywords):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod.presets, "callback", interrupted)
        with pytest.raises(SystemExit) as info:
            cli_mod.main.main(args=["presets"])
        assert info.value.code == 1
        assert capsys.readouterr().err == "\nAborted!\n"
        with pytest.raises(KeyboardInterrupt):
            cli_mod.main.main(args=["presets"], standalone_mode=False)


@given(argv=argvs())
def test_any_argv_exits_with_a_documented_code(argv):
    with isolated_filesystem():
        result = invoke_cli(argv)
    assert result.exit_code in (0, 1, 2, 3), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, result.exc_info
    )
    assert "Traceback" not in result.output, argv
    if result.exit_code == 2:
        assert "FAIL" in result.output or "check failed" in result.output, (argv, result.output)


@given(data=any_configs(), invocation=st.sampled_from(INVOCATIONS))
def test_any_config_runs_finite_or_exits_1_naming_a_field(data, invocation):
    command, *options = invocation
    with tempfile.TemporaryDirectory() as out:
        if command == "run":
            options += ["--out", out]
        result = run_cli(command, json.dumps(data), *options)
        if result.exit_code == 1:
            assert CONFIG_FIELD.search(result.output), result.output
            assert not os.listdir(out)
            return
        if command == "verify":
            # a sampled payoff more than 4 standard errors off by chance FAILs
            # the oracle triangle
            assert result.exit_code in (0, 2), result.output
            assert ("FAIL" in result.output) == (result.exit_code == 2), result.output
            return
        assert result.exit_code == 0, result.output
        with open(os.path.join(out, "records.csv"), newline="") as handle:
            for row in csv.DictReader(handle):
                for column, cell in row.items():
                    assert column in TEXT_COLUMNS or math.isfinite(float(cell)), row
        with open(os.path.join(out, "summary.json")) as handle:
            json.load(handle)
