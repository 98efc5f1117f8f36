"""Hypothesis strategies for the config and command-line fuzz tests of
``test_config_cli``: valid configs, command lines of commands, configs and
options mixed with junk, and configs valid but for one or two fields."""

import json
import math
import re

from hypothesis import strategies as st

from coinvest.config import MAX_GRID_POINTS, MAX_PROVIDERS, MAX_SAMPLES, MAX_SEED, MAX_TIMESLOTS

from conftest import OFF_BY_CHANCE

_floats = st.floats(0.0, 1e12)
_positive = st.floats(1e-9, 1e3)
_slots = st.sampled_from([96, 24, MAX_TIMESLOTS])


def _short_lists(elements):
    return st.lists(elements, min_size=1, max_size=4)


_custom_sp = st.tuples(
    st.fixed_dictionaries({"id": st.text(max_size=5), "beta": _floats}),
    st.fixed_dictionaries({"loads": _short_lists(_floats)})
    | st.fixed_dictionaries({"daily_total": _floats}),
).map(lambda parts: {**parts[0], **parts[1]})


_fields = st.fixed_dictionaries(
    {"scenario": st.sampled_from(["same-type", "omega", "price-sweep", "custom"])},
    optional={
        "description": st.text(max_size=10),
        "market": st.fixed_dictionaries(
            {}, optional={"d": _positive, "Y": st.integers(1, 30), "T": _slots, "xi": _positive}
        ),
        "l_total": _floats,
        "l_total_grid": _short_lists(_floats),
        "omega_grid": _short_lists(st.floats(0.5, 1.0)),
        "d_grid": _short_lists(_positive),
        "n_sps": st.integers(1, MAX_PROVIDERS) | _short_lists(st.integers(1, MAX_PROVIDERS)),
        "out_dir": st.text(max_size=10),
        "seed": st.integers(0, MAX_SEED),
        "method": st.sampled_from(["closed", "sample"]),
        "samples": st.integers(1, MAX_SAMPLES),
    },
)


@st.composite
def valid_configs(draw):
    """A valid config: the custom scenario draws at least one provider."""
    data = draw(_fields)
    custom = data["scenario"] == "custom"
    data["custom_sps"] = draw(st.lists(_custom_sp, min_size=int(custom), max_size=3))
    return data


_COMMAND = st.sampled_from(["run", "verify"]) | st.sampled_from(
    ["presets", "bogus", "--help", "--version", ""]
)
_CONFIG = st.sampled_from(
    ["fig2", json.dumps({"l_total_grid": [2e6], "samples": 200}), OFF_BY_CHANCE,
     '{"bogus": 1}', "no-such.json"]
)
_OPTION = st.sampled_from(["--out", "--strict", "--seed", "--method"]) | st.sampled_from(
    ["--help", "--bogus", "-x", "--"]
)
_VALUES = {
    "--out": ["o", ""],
    "--seed": ["3", "-1", "abc", str(MAX_SEED + 1)],
    "--method": ["enum", "closed", "sample", "xx"],
}


@st.composite
def argvs(draw):
    """A command or junk, mostly a config, then options, mostly with a value of their kind."""
    argv = [draw(_COMMAND)]
    if draw(st.integers(0, 3)):
        argv.append(draw(_CONFIG))
    for option in draw(st.lists(_OPTION, max_size=3)):
        argv.append(option)
        if option in _VALUES and draw(st.integers(0, 3)):
            argv.append(draw(st.sampled_from(_VALUES[option])))
    return argv


# values of the wrong type for every field that takes a number, list or object
_junk = st.none() | st.booleans() | st.just("x") | st.just([]) | st.just({})
# finite values that pass every range check but can overflow the model
_extreme = st.sampled_from([1e150, 1e300, 1.7e308, 10**400])
_nonfinite = st.sampled_from([math.nan, math.inf, -math.inf])


def _bad_list(element):
    """A list that is empty, has one bad element, or is one entry past its cap."""
    return (
        st.just([])
        | st.lists(element, min_size=1, max_size=2)
        | st.just([1.0] * (MAX_GRID_POINTS + 1))
        | _junk
    )


def _provider(slots):
    """A valid custom provider, shaped by the load spec or with explicit loads."""
    beta = st.floats(0.0, 1e-5)
    return st.fixed_dictionaries(
        {"beta": beta, "daily_total": st.floats(0.0, 1e7)}
    ) | st.fixed_dictionaries(
        {"beta": beta, "loads": st.lists(st.floats(0.0, 1e5), min_size=slots, max_size=slots)}
    )


# per field, values it rejects, or accepts but that overflow the model
_BAD_FIELDS = {
    "scenario": st.just("bogus") | _junk,
    "description": st.none() | st.integers(),
    "market": _junk
    | st.fixed_dictionaries({"d": _nonfinite | st.just(0.0) | _extreme})
    | st.fixed_dictionaries({"Y": st.sampled_from([0, 1.5, True])})
    | st.fixed_dictionaries({"T": st.sampled_from([0, MAX_TIMESLOTS + 1])})
    | st.fixed_dictionaries({"xi": _nonfinite | st.just(-1.0) | _extreme})
    | st.just({"spread": 1}),
    "l_total": _junk | _nonfinite | _extreme | st.just(-1.0),
    "l_total_grid": _bad_list(_nonfinite | _extreme | st.just(-1.0)),
    "omega_grid": _bad_list(st.sampled_from([0.4, 1.1, math.nan])),
    "d_grid": _bad_list(st.sampled_from([0.0, -1.0, math.inf, 1e300])),
    "n_sps": st.sampled_from([0, -1, MAX_PROVIDERS + 1, 2.5, [], [0], [2] * (MAX_GRID_POINTS + 1)])
    | _junk,
    "custom_sps": _junk
    | st.lists(_junk, min_size=1, max_size=2)
    | st.sampled_from(
        [
            [{"beta": 1e-6, "daily_total": 1e6}],
            [{"id": "a", "beta": 1e-6}],
            [{"id": "a", "beta": 1e-6, "daily_total": 1e6, "loads": [1.0]}],
            [{"id": "a", "beta": 1e-6, "loads": [1.0] * 7}],
            [{"id": "a", "beta": 1e-6, "daily_total": 1e6}] * 2,
            [{"id": "NO", "beta": 1e-6, "daily_total": 1e6}],
            [{"id": "a", "beta": 1e300, "daily_total": 1e300}],
            [{"id": "a", "beta": -1.0, "daily_total": 1e6}],
        ]
    ),
    "out_dir": st.none() | st.just([]),
    "seed": st.sampled_from([-1, MAX_SEED + 1, 2**64, 1.0]) | _junk,
    "method": st.sampled_from(["guess", "enum"]) | _junk,
    "samples": st.sampled_from([0, MAX_SAMPLES + 1, 10.0]) | _junk,
    "bogus": st.integers(),
}


@st.composite
def any_configs(draw):
    """A valid config, or one whose fields are valid but for one or two."""
    keys = draw(st.sets(st.sampled_from(sorted(_BAD_FIELDS.keys() - {"out_dir", "bogus"}))))
    slots = draw(st.integers(1, 48)) if "market" in keys else 96
    valid = {
        "scenario": st.sampled_from(["same-type", "omega", "price-sweep", "custom"]),
        "description": st.text(max_size=5),
        "market": st.fixed_dictionaries(
            {"T": st.just(slots)},
            optional={
                "d": st.floats(1e-3, 1.0),
                "Y": st.integers(1, 3),
                "xi": st.floats(1e-4, 1e-2),
            },
        ),
        "l_total": st.floats(0.0, 1e7),
        "l_total_grid": st.lists(st.floats(0.0, 1e7), min_size=1, max_size=3),
        "omega_grid": st.lists(st.floats(0.5, 1.0), min_size=1, max_size=3),
        "d_grid": st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3),
        "n_sps": st.integers(1, 4) | st.lists(st.integers(1, 4), min_size=1, max_size=3),
        "custom_sps": st.lists(_provider(slots), min_size=1, max_size=3).map(
            lambda sps: [{"id": f"SP{k}", **sp} for k, sp in enumerate(sps)]
        ),
        "seed": st.integers(0, MAX_SEED),
        "method": st.sampled_from(["closed", "sample"]),
        "samples": st.integers(1, 500),
    }
    data = {key: draw(valid[key]) for key in sorted(keys)}
    for key in draw(st.lists(st.sampled_from(sorted(_BAD_FIELDS)), max_size=2, unique=True)):
        data[key] = draw(_BAD_FIELDS[key])
    return data


# a message names a config field when it names one of these keys
CONFIG_FIELD = re.compile(
    r"\b(scenario|description|market|l_total|l_total_grid|omega_grid|d_grid"
    r"|n_sps|custom_sps|out_dir|seed|method|samples|bogus)\b"
)
TEXT_COLUMNS = {"scenario", "sweep_param", "player_id"}


# each command that solves through cli._solve: run with the config's own
# method, run with the sampling override, and verify
INVOCATIONS = [["run"], ["run", "--method", "sample"], ["verify"]]
