"""Coalitional coinvestment planner for shared edge capacity.

Models the joint purchase of computational capacity by one network owner and
several service providers: optimal sizing and allocation, coalition values,
Shapley payoff division (with cross-checking exact and sampled routes),
core/supermodularity verification, up-front payment settlement, and a
scenario engine with a CLI that emits analysis-ready tables.
"""

__version__ = "0.1.0"

from .config import ConfigError, RunConfig, config_to_dict, parse_config
from .game import (
    NO,
    GameInstance,
    LoadProfile,
    MarketParams,
    ServiceProvider,
    coalition_value,
    eval_utility,
    grand_allocation,
    optimal_allocation_single,
)
from .scenarios import (
    SinusoidalLoadSpec,
    amortized_unit_price,
    clamping_applied,
    run_sweep,
    scale_load,
    scenario_omega,
    scenario_price_sweep,
    scenario_same_type,
    synth_load,
)
from .shapley import (
    ShapleyMethod,
    SupermodularityReport,
    check_core,
    check_supermodularity,
    classify_players,
    settle,
    shapley_closed_form,
    shapley_enumeration,
    shapley_sampling,
)

__all__ = [
    "NO",
    "ConfigError",
    "GameInstance",
    "LoadProfile",
    "MarketParams",
    "RunConfig",
    "ServiceProvider",
    "ShapleyMethod",
    "SinusoidalLoadSpec",
    "SupermodularityReport",
    "amortized_unit_price",
    "check_core",
    "check_supermodularity",
    "clamping_applied",
    "classify_players",
    "coalition_value",
    "config_to_dict",
    "eval_utility",
    "grand_allocation",
    "optimal_allocation_single",
    "parse_config",
    "run_sweep",
    "scale_load",
    "scenario_omega",
    "scenario_price_sweep",
    "scenario_same_type",
    "settle",
    "shapley_closed_form",
    "shapley_enumeration",
    "shapley_sampling",
    "synth_load",
]
