"""Configuration parsing and the command-line pipeline."""

import csv
import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

import coinvest.cli as cli_mod
import coinvest.scenarios as scenarios_mod
from coinvest import (
    ConfigError,
    RunConfig,
    ShapleyMethod,
    SupermodularityReport,
    config_to_dict,
    parse_config,
)
from coinvest.cli import CSV_COLUMNS, main
from coinvest.config import (
    MAX_GRID_POINTS,
    MAX_PROVIDERS,
    MAX_SAMPLES,
    MAX_TIMESLOTS,
    config_from_dict,
    load_preset,
    preset_names,
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
    pytest.param({"load_spec": {"T": MAX_TIMESLOTS + 1}}, "load_spec.T", id="load_spec.T"),
    pytest.param(
        {
            "scenario": "custom",
            "custom_sps": [{"id": "A", "beta": 2e-6, "loads": [1.0] * (MAX_TIMESLOTS + 1)}],
        },
        "custom_sps[0].loads",
        id="loads-length",
    ),
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

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("no-such-config.json")

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
                "load_spec": {"T": MAX_TIMESLOTS},
                "l_total_grid": [1e6] * MAX_GRID_POINTS,
                "omega_grid": [0.5] * MAX_GRID_POINTS,
                "d_grid": [0.05] * MAX_GRID_POINTS,
                "n_sps": [MAX_PROVIDERS] * MAX_GRID_POINTS,
                "custom_sps": [{"id": "B", "beta": 2e-6, "loads": [1.0] * MAX_TIMESLOTS}]
                + [_SHAPED] * (MAX_PROVIDERS - 1),
            }
        )
        assert at_cap.market.T == at_cap.load_spec.T == MAX_TIMESLOTS
        assert len(at_cap.custom_sps) == MAX_PROVIDERS
        assert len(at_cap.custom_sps[0].loads) == MAX_TIMESLOTS
        assert len(at_cap.d_grid) == len(at_cap.n_sps) == MAX_GRID_POINTS

    def test_overrides_are_applied(self):
        cfg = parse_config(
            '{"scenario": "omega", "market": {"xi": 0.002}, '
            '"omega_grid": [0.5, 0.75, 1.0], "method": "enum"}'
        )
        assert cfg.scenario == "omega"
        assert cfg.market.xi == 0.002
        assert cfg.omega_grid == (0.5, 0.75, 1.0)
        assert cfg.method is ShapleyMethod.SUBSET_ENUMERATION

    def test_load_spec_inherits_market_slots(self):
        cfg = parse_config('{"market": {"T": 48}}')
        assert cfg.load_spec.T == 48

    def test_load_spec_slots_must_match_the_market(self):
        with pytest.raises(ConfigError, match="load_spec.T"):
            parse_config('{"load_spec": {"T": 24}}')
        shaped = {"id": "A", "beta": 2e-6, "daily_total": 5e5}
        explicit = {"id": "B", "beta": 2e-6, "loads": [1.0] * 96}
        with pytest.raises(ConfigError, match="load_spec.T"):
            parse_config(json.dumps(
                {"scenario": "custom", "load_spec": {"T": 24}, "custom_sps": [explicit, shaped]}
            ))
        # explicit loads read nothing from the spec
        cfg = parse_config(json.dumps(
            {"scenario": "custom", "load_spec": {"T": 24}, "custom_sps": [explicit]}
        ))
        assert cfg.load_spec.T == 24

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
                    "load_spec": {"a0": 2.0, "components": [[0.5, 10]]},
                    "custom_sps": [{"id": "Z", "beta": 1e-6, "loads": [1.0] * 96}],
                }
            )
        )
        echoed = parse_config(json.dumps(config_to_dict(cfg)))
        assert echoed == cfg
        assert config_to_dict(echoed) == config_to_dict(cfg)


_floats = st.floats(0.0, 1e12)
_positive = st.floats(1e-9, 1e3)
_slots = st.sampled_from([96, 24, MAX_TIMESLOTS])


def _short_lists(elements):
    return st.lists(elements, min_size=1, max_size=4)


def _custom_sp(explicit_loads):
    loads = st.fixed_dictionaries({"loads": _short_lists(_floats)})
    return st.tuples(
        st.fixed_dictionaries({"id": st.text(max_size=5), "beta": _floats}),
        loads if explicit_loads else loads | st.fixed_dictionaries({"daily_total": _floats}),
    ).map(lambda parts: {**parts[0], **parts[1]})


_fields = st.fixed_dictionaries(
    {"scenario": st.sampled_from(["same-type", "omega", "price-sweep", "custom"])},
    optional={
        "description": st.text(max_size=10),
        "market": st.fixed_dictionaries(
            {}, optional={"d": _positive, "Y": st.integers(1, 30), "T": _slots, "xi": _positive}
        ),
        "load_spec": st.fixed_dictionaries(
            {},
            optional={
                "a0": st.floats(-10.0, 10.0),
                "components": _short_lists(
                    st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=2)
                ),
            },
        ),
        "l_total": _floats,
        "l_total_grid": _short_lists(_floats),
        "omega_grid": _short_lists(st.floats(0.5, 1.0)),
        "d_grid": _short_lists(_positive),
        "n_sps": st.integers(1, MAX_PROVIDERS) | _short_lists(st.integers(1, MAX_PROVIDERS)),
        "out_dir": st.text(max_size=10),
        "seed": st.integers(0, 2**63),
        "method": st.sampled_from(["enum", "closed", "sample"]),
        "samples": st.integers(1, MAX_SAMPLES),
    },
)


@st.composite
def _configs(draw):
    """A valid config: only custom providers that all give explicit loads
    free the load spec's slot count from the market's."""
    data = draw(_fields)
    custom = data["scenario"] == "custom"
    spec_slots = draw(st.none() | _slots) if custom else None
    data["custom_sps"] = draw(
        st.lists(_custom_sp(spec_slots is not None), min_size=int(custom), max_size=3)
    )
    if spec_slots is not None:
        data.setdefault("load_spec", {})["T"] = spec_slots
    return data


@given(data=_configs())
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


def run_cli(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


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
        assert meta["load_clamping_applied"] is False

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
        result = run_cli("run", SMALL_RUN, "--out", str(out), "--method", "enum")
        assert result.exit_code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["method"] == "enum"

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

    def test_validation_error_exits_1(self, tmp_path):
        result = CliRunner().invoke(main, ["run", '{"market": {"d": -1}}'])
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

    def test_load_spec_slot_mismatch_exits_1(self, tmp_path):
        cfg = json.dumps({"load_spec": {"T": 24}})
        out = tmp_path / "t"
        for args in (["run", cfg, "--out", str(out)], ["verify", cfg]):
            result = run_cli(*args)
            assert result.exit_code == 1, args
            assert "load_spec.T" in result.output and "Traceback" not in result.output
        assert not out.exists()

    def test_explicit_loads_ignore_the_spec_slots(self, tmp_path):
        cfg = json.dumps(
            {
                "scenario": "custom",
                "load_spec": {"T": 24},
                "custom_sps": [{"id": "A", "beta": 3e-6, "loads": [1e4] * 96}],
            }
        )
        result = run_cli("run", cfg, "--out", str(tmp_path / "e"), "--strict")
        assert result.exit_code == 0, result.output
        result = run_cli("verify", json.dumps({**json.loads(cfg), "samples": 1000}))
        assert result.exit_code == 0, result.output

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

    @pytest.mark.parametrize(
        "config, fields",
        [
            # every slot clamps to zero, so no shape scales to l_total
            ({"load_spec": {"a0": -5.0}}, "load_spec, l_total_grid[0]"),
            (
                {
                    "scenario": "custom",
                    "load_spec": {"a0": 1e-300, "components": [[0.0, 0.0]]},
                    "custom_sps": [{"id": "a", "beta": 1e-6, "daily_total": 1e300}],
                },
                "load_spec, custom_sps[0].daily_total",
            ),
        ],
    )
    def test_unscalable_load_shape_exits_1(self, tmp_path, config, fields):
        cfg = json.dumps(config)
        out = tmp_path / "z"
        for args in (["run", cfg, "--out", str(out)], ["verify", cfg]):
            result = run_cli(*args)
            assert result.exit_code == 1, args
            assert fields in result.output, result.output
        assert not out.exists()

    def test_overflowing_load_spec_exits_1_without_a_warning(self, tmp_path):
        # every parameter is finite, but the evaluated shape overflows
        cfg = json.dumps({"load_spec": {"a0": 1e308, "components": [[1e308, 0]]}})
        out = tmp_path / "w"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in (["run", cfg, "--out", str(out)], ["verify", cfg]):
                result = run_cli(*args)
                assert result.exit_code == 1, args
                assert "load_spec" in result.output, result.output
        assert not out.exists()

    def test_too_many_samples_exit_1_before_any_work(self, tmp_path, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        for module in (cli_mod, scenarios_mod):
            monkeypatch.setattr(module, "shapley_sampling", no_sampling)
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
        result = CliRunner().invoke(main, ["run", SMALL_RUN, "--out", str(blocker)])
        assert result.exit_code == 3

    def test_strict_flags_injected_check_failure(self, tmp_path, monkeypatch):
        def broken_check(game, **kwargs):
            return SupermodularityReport(
                holds=False,
                counterexample=("SP1", frozenset(), frozenset({"NO"})),
            )

        monkeypatch.setattr(cli_mod, "check_supermodularity", broken_check)
        out = tmp_path / "s"
        strict = CliRunner().invoke(main, ["run", SMALL_RUN, "--out", str(out), "--strict"])
        assert strict.exit_code == 2
        assert "supermodularity" in strict.output
        relaxed = CliRunner().invoke(main, ["run", SMALL_RUN, "--out", str(out)])
        assert relaxed.exit_code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert not summary["all_checks_passed"]


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

    def test_verify_zero_load_passes_trivially(self):
        result = run_cli("verify", json.dumps({"l_total_grid": [0.0], "samples": 100}))
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 4

    def test_verify_detects_injected_failure(self, monkeypatch):
        def broken_check(game, **kwargs):
            return SupermodularityReport(
                holds=False,
                counterexample=("SP1", frozenset(), frozenset({"NO"})),
            )

        monkeypatch.setattr(cli_mod, "check_supermodularity", broken_check)
        result = CliRunner().invoke(
            main, ["verify", json.dumps({"l_total_grid": [2e6], "samples": 1000})]
        )
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
            result = cli_mod.shapley_closed_form(game)
            return replace(result, stderr={pid: math.nan for pid in game.players})

        monkeypatch.setattr(cli_mod, "shapley_sampling", blind_sampler)
        result = CliRunner().invoke(
            main, ["verify", json.dumps({"l_total_grid": [2e6], "samples": 100})]
        )
        assert result.exit_code == 2
        assert "oracle-triangle        FAIL" in result.output
        assert "stderr is not finite" in result.output

    def test_presets_listing(self):
        result = run_cli("presets")
        assert result.exit_code == 0
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6"):
            assert name in result.output

    def test_module_entry_point(self, tmp_path):
        import os
        import subprocess
        import sys

        # the child imports the same package as this suite, installed or not
        src = str(Path(cli_mod.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "coinvest", "presets"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "fig1" in proc.stdout
