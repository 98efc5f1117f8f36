"""Run configuration: JSON parsing, validation, defaults and shipped presets.

A configuration is a single JSON object; every key is optional and unknown
keys are rejected. Its keys are the fields of the named tuple
:class:`RunConfig` and of the named tuples it holds, and a missing key takes
the field's default. The README documents the schema; :func:`config_to_dict`
reads it back off the fields and round-trips losslessly through
:func:`parse_config`.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import NamedTuple

from .game import MarketParams, _shown
from .scenarios import (
    DEFAULT_D_GRID,
    DEFAULT_L_TOTAL,
    DEFAULT_L_TOTAL_GRID,
    DEFAULT_OMEGA_GRID,
)
from .shapley import ShapleyMethod

SCENARIOS = ("same-type", "omega", "price-sweep", "custom")
#: Most permutations a config may ask the sampler for, per instance. The
#: sampler's time grows linearly in it, so a mistyped count (say 1e12) is
#: refused before any work instead of running until it is killed.
MAX_SAMPLES = 10**8
#: Most providers per instance: each ``n_sps`` value and the length of
#: ``custom_sps``. Both of ``run``'s methods take time linear in the
#: providers; ``verify`` skips its brute-force oracle past the enumeration bound.
MAX_PROVIDERS = 1000
#: Most entries in one sweep list (``l_total_grid``, ``omega_grid``,
#: ``d_grid``, ``n_sps``): each entry is one more instance to solve.
MAX_GRID_POINTS = 1000
#: Largest seed. Every instance of a config samples with the config's seed,
#: and the sampler takes any seed below 2^64; the cap stays at the range
#: ``run --seed`` has always taken.
MAX_SEED = 2**63 - 1
#: Most timeslots per day (``market.T``, each custom ``loads``): every
#: provider's load profile and optimum are this long.
MAX_TIMESLOTS = 10**4


class ConfigError(ValueError):
    """A run configuration could not be parsed or validated."""


class CustomProvider(NamedTuple):
    """Provider description for the custom scenario.

    Exactly one of ``daily_total`` (shaped by the built-in daily curve,
    :func:`~coinvest.scenarios.synth_load`) or explicit per-slot ``loads``
    must be given.
    """

    id: str
    beta: float
    daily_total: float | None = None
    loads: tuple[float, ...] | None = None


class RunConfig(NamedTuple):
    """Fully resolved configuration of one CLI invocation."""

    scenario: str = "same-type"
    description: str = ""
    market: MarketParams = MarketParams()
    l_total: float = DEFAULT_L_TOTAL
    l_total_grid: tuple[float, ...] = DEFAULT_L_TOTAL_GRID
    omega_grid: tuple[float, ...] = DEFAULT_OMEGA_GRID
    d_grid: tuple[float, ...] = DEFAULT_D_GRID
    n_sps: tuple[int, ...] = (2,)
    custom_sps: tuple[CustomProvider, ...] = ()
    out_dir: str = "out"
    seed: int = 0
    method: ShapleyMethod = ShapleyMethod.CLOSED_FORM
    samples: int = 100_000


def parse_config(source: str | os.PathLike) -> RunConfig:
    """Parse a JSON run configuration from a file path or inline text.

    Strings starting with ``{`` (or empty strings) are treated as inline JSON;
    anything else is read as a file path. An empty document yields all
    defaults. Raises :class:`ConfigError` with line/column context on JSON
    errors and with the offending field name on validation errors.
    """
    text, origin = _read_source(source)
    stripped = text.strip()
    if not stripped:
        data = {}
    else:
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{origin}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except ValueError as exc:  # an integer literal past the digit limit
            raise ConfigError(f"{origin}: invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"{origin}: invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{origin}: the top level must be a JSON object")
    return config_from_dict(data)


def _read_source(source: str | os.PathLike) -> tuple[str, str]:
    if isinstance(source, os.PathLike):
        path = Path(source)
    else:
        text = str(source)
        if not text.strip() or text.lstrip().startswith("{"):
            return text, "<inline config>"
        path = Path(text)
    shown = _shown(str(path))
    try:
        # a path past the OS name limit makes even the stat raise
        if not path.is_file():
            if path.exists():  # a directory, a device or a pipe
                raise ConfigError(f"config path is not a regular file: {shown}")
            raise ConfigError(f"config file not found: {shown}")
        return path.read_text(encoding="utf-8"), shown
    except OSError as exc:
        # strerror: the exception's own text repeats the whole path
        raise ConfigError(f"cannot read config file {shown}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {shown}: {exc}") from exc


def _reject_unknown(data: dict, schema, where: str) -> None:
    """Refuse any key of ``data`` that is not a field of the named tuple ``schema``."""
    allowed = set(schema._fields)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key{'s' if len(unknown) > 1 else ''} {_shown(unknown)} in {where}; "
            f"allowed: {sorted(allowed)!r}"
        )


def _object(value, field: str, schema) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config field '{field}' must be an object")
    _reject_unknown(value, schema, f"'{field}'")
    return value


def _number(value, field: str, *, minimum=None, strict_min=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field '{field}' must be a number, got {_shown(value)}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"config field '{field}' must be finite, got an integer past the "
                          "float range") from None
    if not math.isfinite(value):
        raise ConfigError(f"config field '{field}' must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"config field '{field}' must be >= {minimum}, got {value!r}")
    if strict_min is not None and value <= strict_min:
        raise ConfigError(f"config field '{field}' must be > {strict_min}, got {value!r}")
    return value


def _integer(value, field: str, *, minimum: int, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field '{field}' must be an integer, got {_shown(value)}")
    if value < minimum:
        raise ConfigError(f"config field '{field}' must be >= {minimum}, got {_shown(value)}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"config field '{field}' must be <= {maximum}, got {_shown(value)}")
    return value


def _check_length(value: list, field: str, maximum: int) -> None:
    if len(value) > maximum:
        raise ConfigError(
            f"config field '{field}' may hold at most {maximum} entries, got {len(value)}"
        )


def _string(value, field: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"config field '{field}' must be a string, got {_shown(value)}")
    return value


def _number_list(value, field: str, *, max_len: int, **kwargs) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config field '{field}' must be a non-empty list of numbers")
    _check_length(value, field, max_len)
    return tuple(_number(v, f"{field}[{i}]", **kwargs) for i, v in enumerate(value))


def _field(data: dict, key: str, default, parse, where: str = "", **limits):
    """``parse`` of ``data[key]``, named ``where + key`` in errors; ``default`` if absent."""
    return parse(data[key], where + key, **limits) if key in data else default


def config_from_dict(data: dict) -> RunConfig:
    """Validate a plain dict (already-parsed JSON) into a :class:`RunConfig`.

    A missing field takes its default from :class:`RunConfig`.
    """
    _reject_unknown(data, RunConfig, "the top-level config")
    default = RunConfig()

    scenario = _field(data, "scenario", default.scenario, _string)
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"config field 'scenario' must be one of {SCENARIOS!r}, got {_shown(scenario)}"
        )
    description = _field(data, "description", default.description, _string)

    raw = _object(data.get("market", {}), "market", MarketParams)
    market = MarketParams(
        d=_field(raw, "d", default.market.d, _number, "market.", strict_min=0.0),
        Y=_field(raw, "Y", default.market.Y, _integer, "market.", minimum=1),
        T=_field(raw, "T", default.market.T, _integer, "market.", minimum=1,
                 maximum=MAX_TIMESLOTS),
        xi=_field(raw, "xi", default.market.xi, _number, "market.", strict_min=0.0),
    )

    l_total = _field(data, "l_total", default.l_total, _number, minimum=0.0)
    l_total_grid = _field(data, "l_total_grid", default.l_total_grid, _number_list,
                          max_len=MAX_GRID_POINTS, minimum=0.0)
    omega_grid = _field(data, "omega_grid", default.omega_grid, _number_list,
                        max_len=MAX_GRID_POINTS)
    for i, w in enumerate(omega_grid):
        if not 0.5 <= w <= 1.0:
            raise ConfigError(f"config field 'omega_grid[{i}]' must lie in [0.5, 1], got {w!r}")
    d_grid = _field(data, "d_grid", default.d_grid, _number_list, max_len=MAX_GRID_POINTS,
                    strict_min=0.0)
    n_sps = _field(data, "n_sps", default.n_sps, _provider_counts)

    custom_sps = _field(data, "custom_sps", default.custom_sps, _custom_providers)
    if scenario == "custom" and not custom_sps:
        raise ConfigError("the custom scenario requires at least one entry in 'custom_sps'")

    return RunConfig(
        scenario=scenario,
        description=description,
        market=market,
        l_total=l_total,
        l_total_grid=l_total_grid,
        omega_grid=omega_grid,
        d_grid=d_grid,
        n_sps=n_sps,
        custom_sps=custom_sps,
        out_dir=_field(data, "out_dir", default.out_dir, _string),
        seed=_field(data, "seed", default.seed, _integer, minimum=0, maximum=MAX_SEED),
        samples=_field(data, "samples", default.samples, _integer, minimum=1,
                       maximum=MAX_SAMPLES),
        method=_field(data, "method", default.method, _method),
    )


def _provider_counts(value, field: str) -> tuple[int, ...]:
    if isinstance(value, int) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config field '{field}' must be an integer or a non-empty list")
    _check_length(value, field, MAX_GRID_POINTS)
    return tuple(
        _integer(v, f"{field}[{i}]", minimum=1, maximum=MAX_PROVIDERS) for i, v in enumerate(value)
    )


def _method(value, field: str) -> ShapleyMethod:
    name = _string(value, field)
    try:
        return ShapleyMethod(name)
    except ValueError:
        raise ConfigError(
            f"config field '{field}' must be one of "
            f"{[m.value for m in ShapleyMethod]!r}, got {_shown(name)}"
        ) from None


def _custom_providers(value, field: str) -> tuple[CustomProvider, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"config field '{field}' must be a list")
    _check_length(value, field, MAX_PROVIDERS)
    return tuple(_custom_provider(entry, f"{field}[{i}]") for i, entry in enumerate(value))


def _custom_provider(entry, where: str) -> CustomProvider:
    _object(entry, where, CustomProvider)
    if "id" not in entry:
        raise ConfigError(f"config field '{where}.id' is required")
    sp_id = _string(entry["id"], f"{where}.id")
    beta = _number(entry.get("beta", 0.0), f"{where}.beta", minimum=0.0)
    if ("daily_total" in entry) == ("loads" in entry):
        raise ConfigError(
            f"config field '{where}' needs exactly one of 'daily_total' or 'loads'"
        )
    return CustomProvider(
        id=sp_id,
        beta=beta,
        daily_total=_field(entry, "daily_total", None, _number, f"{where}.", minimum=0.0),
        loads=_field(entry, "loads", None, _number_list, f"{where}.", max_len=MAX_TIMESLOTS,
                     minimum=0.0),
    )


def config_to_dict(config: RunConfig) -> dict:
    """Serialize a config back to the JSON schema; a fixpoint of parsing.

    Every named-tuple field is read by name; a custom provider drops the one of
    ``daily_total`` and ``loads`` it does not give.
    """
    data = _field_values(config)
    data["market"] = _field_values(config.market)
    data["custom_sps"] = [
        {key: value for key, value in _field_values(sp).items() if value is not None}
        for sp in config.custom_sps
    ]
    data["method"] = config.method.value
    return data


def _field_values(obj) -> dict:
    """Each field of a named tuple by name, a plain tuple as the list JSON reads back.

    Shallow on purpose: a nested named tuple is left as it is, for the caller
    to serialize.
    """
    return {key: list(value) if type(value) is tuple else value
            for key, value in obj._asdict().items()}


# the shipped presets, one JSON file each, beside this module
_PRESETS = Path(__file__).with_name("presets")


def preset_names() -> tuple[str, ...]:
    """Names of the configuration presets shipped with the package, the JSON
    files of its ``presets`` directory (read from disk, so not from a zip)."""
    return tuple(sorted(p.name[: -len(".json")] for p in _PRESETS.iterdir()
                        if p.name.endswith(".json")))


def load_preset(name: str) -> str:
    """Return the JSON text of a shipped preset, read from the ``presets`` directory."""
    # a name that is not listed never reaches the filesystem: it could be a
    # relative path out of the preset directory, or too long for a file name
    names = preset_names()
    if name not in names:
        raise ConfigError(f"unknown preset {_shown(name)}; available: {list(names)!r}")
    return (_PRESETS / f"{name}.json").read_text(encoding="utf-8")
