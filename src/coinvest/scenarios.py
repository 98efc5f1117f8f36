"""Experiment builders: diurnal load synthesis and market scenario sweeps.

The three stock scenarios mirror the standard study setups: two providers of
the same type whose loads split 4:1, the same pair with the benefit factor
skewed between them, and N equal providers facing a range of capacity prices.
``run_sweep`` solves any list of instances end to end into flat records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .game import (
    MAX_ENUMERATION_PLAYERS,
    NO,
    GameInstance,
    LoadProfile,
    MarketParams,
    ServiceProvider,
    coalition_value,
    grand_allocation,
)
from .shapley import (
    AGREEMENT_TOL,
    ShapleyMethod,
    shapley_closed_form,
    shapley_enumeration,
    shapley_sampling,
    settle,
)

#: Default daily-total sweep for the load scenario, requests per day. Starts
#: high enough that both providers are past their activation threshold, where
#: capacity growth is genuinely sublinear.
DEFAULT_L_TOTAL_GRID = tuple(1.0e6 * k for k in range(1, 11))
#: Default skew grid for the two-provider heterogeneous scenario.
DEFAULT_OMEGA_GRID = tuple(round(0.5 + 0.05 * k, 2) for k in range(11))
#: Default price grid, log-spaced around the stock 0.05 dollars/millicore.
DEFAULT_D_GRID = tuple(float(v) for v in np.geomspace(0.005, 0.5, 20))
#: Default daily total load when a scenario needs a single value.
DEFAULT_L_TOTAL = 1.0e6


@dataclass(frozen=True)
class SinusoidalLoadSpec:
    """Daily load shape: a base level plus K sinusoidal harmonics.

    Slot t (1-based) carries ``a0 + sum_k a_k * sin(2*k*pi*(t - t_k)/T)``,
    clamped at zero. The default shape is a residential evening peak.
    """

    a0: float = 1.0
    components: tuple[tuple[float, float], ...] = ((0.45, 66.0), (0.15, 30.0))
    T: int = 96

    def __post_init__(self):
        comps = tuple((float(a), float(t0)) for a, t0 in self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) < 1:
            raise ValueError("at least one sinusoidal component is required")
        if not (isinstance(self.T, int) and self.T >= 1):
            raise ValueError(f"T must be an integer >= 1, got {self.T!r}")

    def raw_profile(self) -> np.ndarray:
        """The shape before clamping; may dip below zero.

        Finite parameters can still overflow to inf or nan; that is left for
        the callers' finite checks to report, without a numpy warning.
        """
        t = np.arange(1, self.T + 1, dtype=float)
        out = np.full(self.T, float(self.a0))
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (amp, offset) in enumerate(self.components, start=1):
                out += amp * np.sin(2.0 * k * math.pi * (t - offset) / self.T)
        return out


DEFAULT_LOAD_SPEC = SinusoidalLoadSpec()


def synth_load(spec: SinusoidalLoadSpec) -> LoadProfile:
    """Evaluate a sinusoidal spec into a nonnegative per-slot profile."""
    return LoadProfile(tuple(np.maximum(spec.raw_profile(), 0.0)))


def clamping_applied(spec: SinusoidalLoadSpec) -> bool:
    """Whether synthesizing this spec clips negative slots to zero."""
    return bool((spec.raw_profile() < 0.0).any())


def scale_load(profile: LoadProfile, factor: float) -> LoadProfile:
    """Multiply every slot by a nonnegative factor."""
    if not (factor >= 0.0 and math.isfinite(factor)):
        raise ValueError(f"factor must be finite and >= 0, got {factor!r}")
    return LoadProfile(tuple(v * factor for v in profile.values))


def amortized_unit_price(market: MarketParams) -> float:
    """Capacity price spread over every slot of the horizon: d / (D * T)."""
    return market.d / (market.D * market.T)


def _base_shape(load_spec: SinusoidalLoadSpec, market: MarketParams) -> LoadProfile:
    if load_spec.T != market.T:
        raise ValueError(
            f"load spec has T={load_spec.T} but the market uses T={market.T}"
        )
    return synth_load(load_spec)


def _shape_factor(base: LoadProfile, daily_total: float) -> float:
    if daily_total == 0.0:
        return 0.0
    if base.total <= 0.0:
        raise ValueError("load shape sums to zero; cannot scale it to a positive total")
    return daily_total / base.total


def scenario_same_type(
    l_total: float,
    market: MarketParams | None = None,
    load_spec: SinusoidalLoadSpec = DEFAULT_LOAD_SPEC,
) -> GameInstance:
    """Two providers sharing one benefit factor, loads split 4:1.

    Both betas equal the amortized unit price, and the two providers follow
    the same daily shape with the first carrying four fifths of ``l_total``.
    The scale factors are built so the per-slot 4:1 ratio is exact.
    """
    if not (l_total >= 0.0 and math.isfinite(l_total)):
        raise ValueError(f"l_total must be finite and >= 0, got {l_total!r}")
    market = market or MarketParams()
    base = _base_shape(load_spec, market)
    f2 = _shape_factor(base, l_total / 5.0)
    price = amortized_unit_price(market)
    return GameInstance(
        market=market,
        sps=(
            ServiceProvider("SP1", price, scale_load(base, 4.0 * f2)),
            ServiceProvider("SP2", price, scale_load(base, f2)),
        ),
    )


def scenario_omega(
    omega: float,
    l_total: float,
    market: MarketParams | None = None,
    load_spec: SinusoidalLoadSpec = DEFAULT_LOAD_SPEC,
) -> GameInstance:
    """The 4:1 pair with the joint benefit factor skewed towards the second.

    The two betas sum to twice the amortized unit price, with the second
    provider taking fraction ``omega``. At 0.5 this is exactly the same-type
    scenario; at 1.0 the first provider earns nothing per request.
    """
    if not (0.5 <= omega <= 1.0):
        raise ValueError(f"omega must lie in [0.5, 1], got {omega!r}")
    if not (l_total >= 0.0 and math.isfinite(l_total)):
        raise ValueError(f"l_total must be finite and >= 0, got {l_total!r}")
    market = market or MarketParams()
    base = _base_shape(load_spec, market)
    f2 = _shape_factor(base, l_total / 5.0)
    beta_total = 2.0 * amortized_unit_price(market)
    return GameInstance(
        market=market,
        sps=(
            ServiceProvider("SP1", (1.0 - omega) * beta_total, scale_load(base, 4.0 * f2)),
            ServiceProvider("SP2", omega * beta_total, scale_load(base, f2)),
        ),
    )


def scenario_price_sweep(
    n_sps: int,
    d_values,
    l_total: float,
    market_base: MarketParams | None = None,
    load_spec: SinusoidalLoadSpec = DEFAULT_LOAD_SPEC,
) -> list[GameInstance]:
    """N equal providers, one instance per capacity price.

    Loads split ``l_total`` evenly; all betas stay pinned to the amortized
    unit price of the *base* market while d varies, so dearer capacity buys
    less of it.
    """
    if n_sps < 1:
        raise ValueError(f"n_sps must be >= 1, got {n_sps!r}")
    if not (l_total >= 0.0 and math.isfinite(l_total)):
        raise ValueError(f"l_total must be finite and >= 0, got {l_total!r}")
    d_list = [float(v) for v in d_values]
    if not d_list:
        raise ValueError("d_values must not be empty")
    market_base = market_base or MarketParams()
    base = _base_shape(load_spec, market_base)
    share = scale_load(base, _shape_factor(base, l_total / n_sps))
    price = amortized_unit_price(market_base)
    sps = tuple(ServiceProvider(f"SP{k}", price, share) for k in range(1, n_sps + 1))
    return [GameInstance(market=replace(market_base, d=dv), sps=sps) for dv in d_list]


@dataclass(frozen=True)
class PlayerRecord:
    """One player's slice of a solved instance."""

    player_id: str
    beta: float
    daily_load: float
    h_star: float
    r_hat: float
    shapley: float
    payment: float
    payoff: float


@dataclass(frozen=True)
class SweepRecord:
    """One solved instance: allocation, value, and per-player outcomes."""

    scenario: str
    sweep_param: str
    sweep_value: float
    c_star: float
    v_grand: float
    players: tuple[PlayerRecord, ...]


def run_sweep(
    instances,
    *,
    scenario: str = "custom",
    sweep_param: str = "index",
    sweep_values=None,
    method: ShapleyMethod = ShapleyMethod.CLOSED_FORM,
    samples: int = 100_000,
    seed: int = 0,
) -> list[SweepRecord]:
    """Solve every instance end to end and emit one record per instance.

    Each record holds the grand allocation, the grand value, and the Shapley
    payoffs with their settlement. The closed-form payoff route is re-derived
    by enumeration up to the enumeration bound; sampling derives one
    seed per instance from ``seed`` so records are reproducible regardless of
    how the list is chunked. Output order always equals input order.
    """
    instances = list(instances)
    if not instances:
        raise ValueError("no instances to run")
    if sweep_values is None:
        sweep_values = list(range(len(instances)))
    else:
        sweep_values = list(sweep_values)
    if len(sweep_values) != len(instances):
        raise ValueError(
            f"{len(sweep_values)} sweep values for {len(instances)} instances"
        )
    records = []
    for k, (game, sval) in enumerate(zip(instances, sweep_values)):
        try:
            records.append(
                _solve_one(game, scenario, sweep_param, float(sval), method, samples, seed + k)
            )
        except Exception as exc:
            raise RuntimeError(f"instance {k} ({sweep_param}={sval!r}): {exc}") from exc
    return records


def _solve_one(game, scenario, sweep_param, sweep_value, method, samples, seed):
    alloc = grand_allocation(game)
    v_grand = coalition_value(game, game.players)
    if method is ShapleyMethod.CLOSED_FORM:
        result = shapley_closed_form(game)
        if len(game.players) <= MAX_ENUMERATION_PLAYERS:
            exact = shapley_enumeration(game)
            for pid, got in result.payoffs.items():
                ref = exact.payoffs[pid]
                if abs(got - ref) > AGREEMENT_TOL * max(1.0, abs(ref)):
                    raise RuntimeError(
                        f"closed-form payoff for {pid} diverges from enumeration: "
                        f"{got!r} vs {ref!r}"
                    )
    elif method is ShapleyMethod.SUBSET_ENUMERATION:
        result = shapley_enumeration(game)
    elif method is ShapleyMethod.PERMUTATION_SAMPLING:
        result = shapley_sampling(game, samples, seed)
    else:
        raise ValueError(f"unknown Shapley method {method!r}")
    settlement = settle(game, result.payoffs)
    rows = tuple(
        PlayerRecord(
            player_id=sp.id,
            beta=sp.beta,
            daily_load=sp.load.total,
            h_star=alloc.h[sp.id],
            r_hat=settlement.revenue[sp.id],
            shapley=result.payoffs[sp.id],
            payment=settlement.payment[sp.id],
            payoff=settlement.payoff[sp.id],
        )
        for sp in game.sps
    ) + (
        PlayerRecord(
            player_id=NO,
            beta=0.0,
            daily_load=0.0,
            h_star=0.0,
            r_hat=0.0,
            shapley=result.payoffs[NO],
            payment=settlement.payment[NO],
            payoff=settlement.payoff[NO],
        ),
    )
    return SweepRecord(
        scenario=scenario,
        sweep_param=sweep_param,
        sweep_value=sweep_value,
        c_star=alloc.C,
        v_grand=v_grand,
        players=rows,
    )
