"""Run configuration: JSON parsing, validation, defaults and shipped presets.

A configuration is a single JSON object; every key is optional and unknown
keys are rejected. The full schema is documented in the README and mirrored
by :func:`config_to_dict`, which round-trips losslessly through
:func:`parse_config`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .game import MarketParams
from .scenarios import (
    DEFAULT_D_GRID,
    DEFAULT_L_TOTAL,
    DEFAULT_L_TOTAL_GRID,
    DEFAULT_OMEGA_GRID,
    SinusoidalLoadSpec,
)
from .shapley import ShapleyMethod

SCENARIOS = ("same-type", "omega", "price-sweep", "custom")
#: Most permutations a config may ask the sampler for, per instance. The
#: sampler's time grows linearly in it, so a mistyped count (say 1e12) is
#: refused before any work instead of running until it is killed.
MAX_SAMPLES = 10**8
#: Most providers per instance: each ``n_sps`` value and the length of
#: ``custom_sps``. Past the 20-player enumeration bound only the closed form
#: and sampling run, in time linear in the providers.
MAX_PROVIDERS = 1000
#: Most entries in one sweep list (``l_total_grid``, ``omega_grid``,
#: ``d_grid``, ``n_sps``): each entry is one more instance to solve.
MAX_GRID_POINTS = 1000
#: Most timeslots per day (``market.T``, ``load_spec.T``, each custom
#: ``loads``): every provider's load profile and optimum are this long.
MAX_TIMESLOTS = 10**4

_TOP_KEYS = {
    "scenario", "description", "market", "load_spec", "l_total", "l_total_grid",
    "omega_grid", "d_grid", "n_sps", "custom_sps", "out_dir", "seed", "method",
    "samples",
}
_MARKET_KEYS = {"d", "Y", "T", "xi"}
_LOAD_SPEC_KEYS = {"a0", "components", "T"}
_CUSTOM_SP_KEYS = {"id", "beta", "daily_total", "loads"}


class ConfigError(ValueError):
    """A run configuration could not be parsed or validated."""


@dataclass(frozen=True)
class CustomProvider:
    """Provider description for the custom scenario.

    Exactly one of ``daily_total`` (shaped by the run's load spec) or
    explicit per-slot ``loads`` must be given.
    """

    id: str
    beta: float
    daily_total: float | None = None
    loads: tuple[float, ...] | None = None


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration of one CLI invocation."""

    scenario: str = "same-type"
    description: str = ""
    market: MarketParams = MarketParams()
    load_spec: SinusoidalLoadSpec = SinusoidalLoadSpec()
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
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return path.read_text(encoding="utf-8"), str(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key{'s' if len(unknown) > 1 else ''} {unknown!r} in {where}; "
            f"allowed: {sorted(allowed)!r}"
        )


def _number(value, field: str, *, minimum=None, strict_min=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config field '{field}' must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"config field '{field}' must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"config field '{field}' must be >= {minimum}, got {value!r}")
    if strict_min is not None and value <= strict_min:
        raise ConfigError(f"config field '{field}' must be > {strict_min}, got {value!r}")
    return value


def _integer(value, field: str, *, minimum: int, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config field '{field}' must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"config field '{field}' must be >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"config field '{field}' must be <= {maximum}, got {value!r}")
    return value


def _check_length(value: list, field: str, maximum: int) -> None:
    if len(value) > maximum:
        raise ConfigError(
            f"config field '{field}' may hold at most {maximum} entries, got {len(value)}"
        )


def _string(value, field: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"config field '{field}' must be a string, got {value!r}")
    return value


def _number_list(value, field: str, *, max_len: int, **kwargs) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config field '{field}' must be a non-empty list of numbers")
    _check_length(value, field, max_len)
    return tuple(_number(v, f"{field}[{i}]", **kwargs) for i, v in enumerate(value))


def config_from_dict(data: dict) -> RunConfig:
    """Validate a plain dict (already-parsed JSON) into a :class:`RunConfig`."""
    _reject_unknown(data, _TOP_KEYS, "the top-level config")

    scenario = _string(data.get("scenario", "same-type"), "scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"config field 'scenario' must be one of {SCENARIOS!r}, got {scenario!r}")
    description = _string(data.get("description", ""), "description")

    market_data = data.get("market", {})
    if not isinstance(market_data, dict):
        raise ConfigError("config field 'market' must be an object")
    _reject_unknown(market_data, _MARKET_KEYS, "'market'")
    market_kwargs = {}
    if "d" in market_data:
        market_kwargs["d"] = _number(market_data["d"], "market.d", strict_min=0.0)
    if "Y" in market_data:
        market_kwargs["Y"] = _integer(market_data["Y"], "market.Y", minimum=1)
    if "T" in market_data:
        market_kwargs["T"] = _integer(
            market_data["T"], "market.T", minimum=1, maximum=MAX_TIMESLOTS
        )
    if "xi" in market_data:
        market_kwargs["xi"] = _number(market_data["xi"], "market.xi", strict_min=0.0)
    market = MarketParams(**market_kwargs)

    spec_data = data.get("load_spec", {})
    if not isinstance(spec_data, dict):
        raise ConfigError("config field 'load_spec' must be an object")
    _reject_unknown(spec_data, _LOAD_SPEC_KEYS, "'load_spec'")
    spec_kwargs = {"T": market.T}
    if "a0" in spec_data:
        spec_kwargs["a0"] = _number(spec_data["a0"], "load_spec.a0")
    if "T" in spec_data:
        spec_kwargs["T"] = _integer(
            spec_data["T"], "load_spec.T", minimum=1, maximum=MAX_TIMESLOTS
        )
    if "components" in spec_data:
        comps = spec_data["components"]
        if not isinstance(comps, list) or not comps:
            raise ConfigError("config field 'load_spec.components' must be a non-empty list")
        parsed = []
        for i, comp in enumerate(comps):
            if not isinstance(comp, list) or len(comp) != 2:
                raise ConfigError(
                    f"config field 'load_spec.components[{i}]' must be an [amplitude, offset] pair"
                )
            parsed.append(
                (
                    _number(comp[0], f"load_spec.components[{i}][0]"),
                    _number(comp[1], f"load_spec.components[{i}][1]"),
                )
            )
        spec_kwargs["components"] = tuple(parsed)
    load_spec = SinusoidalLoadSpec(**spec_kwargs)

    l_total = _number(data.get("l_total", DEFAULT_L_TOTAL), "l_total", minimum=0.0)
    l_total_grid = (
        _number_list(
            data["l_total_grid"], "l_total_grid", max_len=MAX_GRID_POINTS, minimum=0.0
        )
        if "l_total_grid" in data
        else DEFAULT_L_TOTAL_GRID
    )
    if "omega_grid" in data:
        omega_grid = _number_list(data["omega_grid"], "omega_grid", max_len=MAX_GRID_POINTS)
        for i, w in enumerate(omega_grid):
            if not 0.5 <= w <= 1.0:
                raise ConfigError(
                    f"config field 'omega_grid[{i}]' must lie in [0.5, 1], got {w!r}"
                )
    else:
        omega_grid = DEFAULT_OMEGA_GRID
    d_grid = (
        _number_list(data["d_grid"], "d_grid", max_len=MAX_GRID_POINTS, strict_min=0.0)
        if "d_grid" in data
        else DEFAULT_D_GRID
    )

    raw_n = data.get("n_sps", [2])
    if isinstance(raw_n, int) and not isinstance(raw_n, bool):
        raw_n = [raw_n]
    if not isinstance(raw_n, list) or not raw_n:
        raise ConfigError("config field 'n_sps' must be an integer or a non-empty list")
    _check_length(raw_n, "n_sps", MAX_GRID_POINTS)
    n_sps = tuple(
        _integer(v, f"n_sps[{i}]", minimum=1, maximum=MAX_PROVIDERS) for i, v in enumerate(raw_n)
    )

    raw_custom = data.get("custom_sps", [])
    if not isinstance(raw_custom, list):
        raise ConfigError("config field 'custom_sps' must be a list")
    _check_length(raw_custom, "custom_sps", MAX_PROVIDERS)
    custom_sps = tuple(_parse_custom_sp(entry, i) for i, entry in enumerate(raw_custom))
    if scenario == "custom" and not custom_sps:
        raise ConfigError("the custom scenario requires at least one entry in 'custom_sps'")
    # every scenario but a custom one with explicit loads shapes loads from the spec
    if load_spec.T != market.T and (
        scenario != "custom" or any(sp.loads is None for sp in custom_sps)
    ):
        raise ConfigError(
            f"config field 'load_spec.T' is {load_spec.T} but 'market.T' is {market.T}; "
            "loads synthesized from the spec need one slot per market timeslot"
        )

    out_dir = _string(data.get("out_dir", "out"), "out_dir")
    seed = _integer(data.get("seed", 0), "seed", minimum=0)
    samples = _integer(data.get("samples", 100_000), "samples", minimum=1, maximum=MAX_SAMPLES)

    method_name = _string(data.get("method", "closed"), "method")
    try:
        method = ShapleyMethod(method_name)
    except ValueError:
        raise ConfigError(
            f"config field 'method' must be one of "
            f"{[m.value for m in ShapleyMethod]!r}, got {method_name!r}"
        ) from None

    return RunConfig(
        scenario=scenario,
        description=description,
        market=market,
        load_spec=load_spec,
        l_total=l_total,
        l_total_grid=l_total_grid,
        omega_grid=omega_grid,
        d_grid=d_grid,
        n_sps=n_sps,
        custom_sps=custom_sps,
        out_dir=out_dir,
        seed=seed,
        method=method,
        samples=samples,
    )


def _parse_custom_sp(entry, index: int) -> CustomProvider:
    where = f"custom_sps[{index}]"
    if not isinstance(entry, dict):
        raise ConfigError(f"config field '{where}' must be an object")
    _reject_unknown(entry, _CUSTOM_SP_KEYS, f"'{where}'")
    if "id" not in entry:
        raise ConfigError(f"config field '{where}.id' is required")
    sp_id = _string(entry["id"], f"{where}.id")
    beta = _number(entry.get("beta", 0.0), f"{where}.beta", minimum=0.0)
    has_total = "daily_total" in entry
    has_loads = "loads" in entry
    if has_total == has_loads:
        raise ConfigError(
            f"config field '{where}' needs exactly one of 'daily_total' or 'loads'"
        )
    if has_total:
        return CustomProvider(
            id=sp_id,
            beta=beta,
            daily_total=_number(entry["daily_total"], f"{where}.daily_total", minimum=0.0),
        )
    loads = _number_list(entry["loads"], f"{where}.loads", max_len=MAX_TIMESLOTS, minimum=0.0)
    return CustomProvider(id=sp_id, beta=beta, loads=loads)


def config_to_dict(config: RunConfig) -> dict:
    """Serialize a config back to the JSON schema; a fixpoint of parsing."""
    custom = []
    for sp in config.custom_sps:
        entry = {"id": sp.id, "beta": sp.beta}
        if sp.loads is not None:
            entry["loads"] = list(sp.loads)
        else:
            entry["daily_total"] = sp.daily_total
        custom.append(entry)
    return {
        "scenario": config.scenario,
        "description": config.description,
        "market": {
            "d": config.market.d,
            "Y": config.market.Y,
            "T": config.market.T,
            "xi": config.market.xi,
        },
        "load_spec": {
            "a0": config.load_spec.a0,
            "components": [list(c) for c in config.load_spec.components],
            "T": config.load_spec.T,
        },
        "l_total": config.l_total,
        "l_total_grid": list(config.l_total_grid),
        "omega_grid": list(config.omega_grid),
        "d_grid": list(config.d_grid),
        "n_sps": list(config.n_sps),
        "custom_sps": custom,
        "out_dir": config.out_dir,
        "seed": config.seed,
        "method": config.method.value,
        "samples": config.samples,
    }


def preset_names() -> tuple[str, ...]:
    """Names of the configuration presets shipped with the package."""
    root = resources.files("coinvest").joinpath("presets")
    return tuple(sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json")))


def load_preset(name: str) -> str:
    """Return the JSON text of a shipped preset."""
    path = resources.files("coinvest").joinpath("presets").joinpath(f"{name}.json")
    if not path.is_file():
        raise ConfigError(f"unknown preset {name!r}; available: {list(preset_names())!r}")
    return path.read_text(encoding="utf-8")
