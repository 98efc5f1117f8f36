"""Coalitional coinvestment planner for shared edge capacity.

Models the joint purchase of computational capacity by one network owner and
several service providers: optimal sizing and allocation, coalition values,
Shapley payoff division (with cross-checking exact and sampled routes),
core/supermodularity verification, up-front payment settlement, and a
scenario engine with a CLI that emits analysis-ready tables.

The exact oracle's names (:mod:`coinvest.oracle`) and ``shapley_sampling``
(:mod:`coinvest.sampling`) are exported lazily: their module loads when one
of them is first read.
"""

__version__ = "0.1.0"

from .config import ConfigError, RunConfig, config_to_dict, parse_config
from .game import (
    NO,
    GameInstance,
    LoadProfile,
    MarketParams,
    ServiceProvider,
    _moved,
    coalition_value,
    grand_allocation,
    optimal_allocation_single,
)
from .scenarios import (
    amortized_unit_price,
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
    check_core_structural,
    check_supermodularity_structural,
    classify_players_structural,
    settle,
    shapley_closed_form,
)

# the exact oracle and the sampler load on first use, so that importing the
# package, or a closed ``coinvest run``, compiles neither
_LAZY = {
    **dict.fromkeys(
        ("coalition_table", "shapley_enumeration", "check_core", "check_supermodularity",
         "classify_players"),
        "oracle",
    ),
    "shapley_sampling": "sampling",
}
__getattr__ = _moved(__name__, _LAZY)


def __dir__():
    return sorted({*globals(), *_LAZY})


__all__ = [
    "NO",
    "ConfigError",
    "GameInstance",
    "LoadProfile",
    "MarketParams",
    "RunConfig",
    "ServiceProvider",
    "ShapleyMethod",
    "SupermodularityReport",
    "amortized_unit_price",
    "check_core",
    "check_core_structural",
    "check_supermodularity",
    "check_supermodularity_structural",
    "classify_players",
    "classify_players_structural",
    "coalition_table",
    "coalition_value",
    "config_to_dict",
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
