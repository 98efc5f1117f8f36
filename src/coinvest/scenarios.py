"""Experiment builders: diurnal load synthesis and market scenario sweeps.

The three stock scenarios mirror the standard study setups: two providers of
the same type whose loads split 4:1, the same pair with the benefit factor
skewed between them, and N equal providers facing a range of capacity prices.
``run_sweep`` solves any list of instances end to end into flat records.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .game import NO, GameInstance, LoadProfile, MarketParams, ServiceProvider
from .shapley import ShapleyMethod, settle, shapley_closed_form

#: Default daily-total sweep for the load scenario, requests per day. Starts
#: high enough that both providers are past their activation threshold, where
#: capacity growth is genuinely sublinear.
DEFAULT_L_TOTAL_GRID = tuple(1.0e6 * k for k in range(1, 11))
#: Default skew grid for the two-provider heterogeneous scenario.
DEFAULT_OMEGA_GRID = tuple(round(0.5 + 0.05 * k, 2) for k in range(11))
#: Default price grid, log-spaced around the stock 0.05 dollars/millicore: the
#: 20 values of ``numpy.geomspace(0.005, 0.5, 20)``.
DEFAULT_D_GRID = (
    0.005, 0.006371374928515666, 0.008118883695943603, 0.010345690405573949,
    0.013183254493651788, 0.016799091431418903, 0.021406661993596966,
    0.027277973905842596, 0.03475963980887802, 0.044293339520504106,
    0.05644189458423444, 0.07192249441438314, 0.09164903554162177,
    0.11678607345450605, 0.14881757208156587, 0.18963450953661246,
    0.24164651192858758, 0.30792410553301297, 0.3923799851757305, 0.5,
)
#: Default daily total load when a scenario needs a single value.
DEFAULT_L_TOTAL = 1.0e6


@lru_cache(maxsize=1)
def synth_load(T: int) -> LoadProfile:
    """The built-in daily load shape over T slots: a residential evening peak.

    Slot t (1-based) carries ``1 + 0.45*sin(2*pi*(t - 66)/T) +
    0.15*sin(4*pi*(t - 30)/T)``; T is the market's, so the shape fits a day
    of any length. Every slot is at least 0.4, for every T up to the config's
    slot cap, so nothing is ever clipped and the total is positive. The
    profile of the last T is cached: it is immutable, and every instance of
    a sweep scales the same one.
    """
    return LoadProfile(tuple(
        1.0 + 0.45 * math.sin(2.0 * math.pi * (t - 66.0) / T)
        + 0.15 * math.sin(4.0 * math.pi * (t - 30.0) / T)
        for t in range(1, T + 1)
    ))


def clamping_applied(T: int) -> bool:
    """Always False: :func:`synth_load` never dips below zero. Nothing calls
    this; it goes once ``bench/spans.py`` drops it from its ``WRAPPED`` table."""
    return False


def scale_load(profile: LoadProfile, factor: float) -> LoadProfile:
    """Multiply every slot by a nonnegative factor."""
    if not (factor >= 0.0 and math.isfinite(factor)):
        raise ValueError(f"factor must be finite and >= 0, got {factor!r}")
    return LoadProfile(tuple(v * factor for v in profile.values))


def amortized_unit_price(market: MarketParams) -> float:
    """Capacity price spread over every slot of the horizon: d / (D * T)."""
    return market.d / (market.D * market.T)


def scenario_same_type(
    l_total: float,
    market: MarketParams | None = None,
) -> GameInstance:
    """Two providers sharing one benefit factor, loads split 4:1.

    Both betas equal the amortized unit price, and the two providers follow
    the same daily shape with the first carrying four fifths of ``l_total``.
    The scale factors are built so the per-slot 4:1 ratio is exact.
    """
    return scenario_omega(0.5, l_total, market)


def scenario_omega(
    omega: float,
    l_total: float,
    market: MarketParams | None = None,
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
    base = synth_load(market.T)
    f2 = l_total / 5.0 / base.total
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
    base = synth_load(market_base.T)
    share = scale_load(base, l_total / n_sps / base.total)
    price = amortized_unit_price(market_base)
    sps = tuple(ServiceProvider(f"SP{k}", price, share) for k in range(1, n_sps + 1))
    return [GameInstance(market=market_base._replace(d=dv), sps=sps) for dv in d_list]


class PlayerRecord(NamedTuple):
    """One player's slice of a solved instance; the owner's has 0 beta,
    daily_load, h_star and r_hat. The fields are records.csv columns and, but
    ``player_id``, keys of the player's summary.json block, beside the
    ``veto`` and ``null`` flags."""

    player_id: str
    beta: float
    daily_load: float
    h_star: float
    r_hat: float
    shapley: float
    payment: float
    payoff: float


class SweepRecord(NamedTuple):
    """One solved instance: allocation, value, and per-player outcomes. The
    fields are keys of the instance's summary.json block, beside ``checks``,
    and but ``players`` records.csv columns (``c_star`` spelled ``C_star``)."""

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
    payoffs with their settlement. Every instance samples with ``seed``, so
    instances of one player count share their arrival orders (common random
    numbers across the sweep), which the sampler draws once. Output order
    always equals input order.
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
                _solve_one(game, scenario, sweep_param, float(sval), method, samples, seed)
            )
        except Exception as exc:
            raise RuntimeError(f"instance {k} ({sweep_param}={sval!r}): {exc}") from exc
    return records


def _solve_one(game, scenario, sweep_param, sweep_value, method, samples, seed):
    if method is ShapleyMethod.CLOSED_FORM:
        result = shapley_closed_form(game)
    elif method is ShapleyMethod.PERMUTATION_SAMPLING:
        from . import sampling  # here, so that a closed run never compiles it

        result = sampling.shapley_sampling(game, samples, seed)
    else:
        raise ValueError(f"unknown Shapley method {method!r}")
    settlement = settle(game, result.payoffs)
    alloc = settlement.allocation
    # the settlement holds the owner's h and revenue as 0, like its beta and load
    rows = tuple(
        PlayerRecord(
            player_id=pid,
            beta=beta,
            daily_load=daily_load,
            h_star=alloc.h[pid],
            r_hat=settlement.revenue[pid],
            shapley=result.payoffs[pid],
            payment=settlement.payment[pid],
            payoff=settlement.payoff[pid],
        )
        for pid, beta, daily_load in (
            *((sp.id, sp.beta, sp.load.total) for sp in game.sps), (NO, 0.0, 0.0)
        )
    )
    return SweepRecord(
        scenario=scenario,
        sweep_param=sweep_param,
        sweep_value=sweep_value,
        c_star=alloc.C,
        v_grand=game.v_grand,
        players=rows,
    )
