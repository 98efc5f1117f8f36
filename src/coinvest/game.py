"""Domain model of the capacity coinvestment game.

One network owner (NO) hosts computational capacity at its nodes; N service
providers (SPs) buy into that capacity to serve their user load. A coalition
that includes the owner picks a total capacity C (millicores) and a split
``h`` of it among its providers so as to maximize the revenue earned over the
investment horizon minus the capital cost ``d * C``. Without the owner no
capacity can be deployed and a coalition is worth exactly zero.

Because the objective decomposes per provider, a coalition's value is the sum
of each member provider's standalone optimum, which is what makes the rest of
the analysis (payoff division, stability checks) tractable. Summing those
optima is decided here only: :func:`coalition_value` for one coalition,
:meth:`GameInstance.coalition_table` for all 2^n of them, bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

#: Player id of the network owner. It hosts capacity, serves no load itself.
NO = "NO"

DAYS_PER_YEAR = 365

#: Every exact route and check enumerates all 2^n coalitions; capped here.
MAX_ENUMERATION_PLAYERS = 20

#: A coalition is any subset of the player ids of a game.
Coalition = frozenset[str]

#: Payoff vectors map every player id to money.
PayoffVector = Mapping[str, float]


def eval_utility(beta: float, xi: float, load: float, h: float) -> float:
    """Money one provider earns in a single timeslot.

    Returns ``beta * load * (1 - exp(-xi * h))``: zero without resources,
    increasing and concave in ``h``, saturating at ``beta * load``.
    """
    if not (beta >= 0.0):
        raise ValueError(f"beta must be >= 0, got {beta!r}")
    if not (xi > 0.0):
        raise ValueError(f"xi must be > 0, got {xi!r}")
    if not (load >= 0.0):
        raise ValueError(f"load must be >= 0, got {load!r}")
    if not (h >= 0.0):
        raise ValueError(f"h must be >= 0, got {h!r}")
    return beta * load * (1.0 - math.exp(-xi * h))


@dataclass(frozen=True)
class MarketParams:
    """Economic and temporal constants of one investment.

    d:  capacity price, dollars per millicore (CAPEX)
    Y:  investment duration in whole years
    T:  timeslots per day (96 = quarter-hour slots)
    xi: diminishing-return shape, per millicore; larger xi saturates sooner
    """

    d: float = 0.05
    Y: int = 1
    T: int = 96
    xi: float = 1e-3

    def __post_init__(self):
        if not (isinstance(self.Y, int) and self.Y >= 1):
            raise ValueError(f"Y must be an integer >= 1, got {self.Y!r}")
        if not (isinstance(self.T, int) and self.T >= 1):
            raise ValueError(f"T must be an integer >= 1, got {self.T!r}")
        if not (self.d > 0.0 and math.isfinite(self.d)):
            raise ValueError(f"d must be a finite number > 0, got {self.d!r}")
        if not (self.xi > 0.0 and math.isfinite(self.xi)):
            raise ValueError(f"xi must be a finite number > 0, got {self.xi!r}")

    @property
    def D(self) -> int:
        """Days in the investment horizon (365 per year)."""
        return DAYS_PER_YEAR * self.Y


@dataclass(frozen=True)
class LoadProfile:
    """Expected number of requests per timeslot over one day."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        for slot, v in enumerate(vals):
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"load at slot {slot} must be finite and >= 0, got {v!r}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        """Daily request total."""
        return math.fsum(self.values)


@dataclass(frozen=True)
class ServiceProvider:
    """One provider: a benefit factor (dollars per served request) and its load."""

    id: str
    beta: float
    load: LoadProfile

    def __post_init__(self):
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")


class SingleOptimum(NamedTuple):
    """Best standalone resource amount for a provider and the profit it yields."""

    h_star: float
    value: float


@dataclass(frozen=True)
class GameInstance:
    """The full game: market constants plus an ordered list of providers.

    The owner is implicit; it appears in :attr:`players` under the id ``NO``
    with zero load and zero benefit factor. Instances are immutable, so all
    derived quantities may be evaluated concurrently.
    """

    market: MarketParams
    sps: tuple[ServiceProvider, ...]

    def __post_init__(self):
        sps = tuple(self.sps)
        object.__setattr__(self, "sps", sps)
        if len(sps) < 1:
            raise ValueError("a game needs at least one service provider")
        ids = [sp.id for sp in sps]
        if len(set(ids)) != len(ids):
            raise ValueError(f"provider ids must be unique, got {ids!r}")
        if NO in ids:
            raise ValueError(f"provider id {NO!r} is reserved for the network owner")
        m = self.market
        for sp in sps:
            if len(sp.load) != m.T:
                raise ValueError(
                    f"provider {sp.id!r} has {len(sp.load)} load slots, expected T={m.T}"
                )
            # the same products optimal_allocation_single forms; an overflow
            # here would put inf or nan into every value derived from them
            scale = m.D * sp.beta * sp.load.total
            gain = m.D * m.xi * sp.beta * sp.load.total / m.d
            if not (math.isfinite(scale) and math.isfinite(gain)):
                raise ValueError(
                    f"provider {sp.id!r}: D*beta*L = {scale!r} and gain D*xi*beta*L/d = "
                    f"{gain!r} must be finite"
                )
        # every coalition value is a subset sum of these profits, the grand
        # value the largest; fsum raises OverflowError when it is not finite
        try:
            grand = math.fsum(opt.value for opt in self.standalone_optima().values())
        except OverflowError:
            grand = math.inf
        if not math.isfinite(grand):
            raise ValueError(
                f"providers {ids!r}: their standalone profits sum to more than the "
                "largest finite float"
            )

    @property
    def players(self) -> tuple[str, ...]:
        """All player ids, providers first, the owner last."""
        return tuple(sp.id for sp in self.sps) + (NO,)

    def standalone_optima(self) -> dict[str, SingleOptimum]:
        """Per-provider optimum (h*, profit), computed once and cached."""
        cached = self.__dict__.get("_optima")
        if cached is None:
            cached = {sp.id: optimal_allocation_single(sp, self.market) for sp in self.sps}
            object.__setattr__(self, "_optima", cached)
        return cached

    def coalition_table(self) -> np.ndarray:
        """Value of every coalition, indexed by membership bitmask over :attr:`players`.

        Built once and cached read-only, so every exact route and check
        shares one table. The subset sums of the providers' standalone
        profits come from :func:`_fsum_subset_sums` in O(2^n) numpy passes,
        bit-identical to :func:`coalition_value`; the owner is the last
        player, so the high bit, and every coalition without it is worth 0.
        """
        cached = self.__dict__.get("_coalition_table")
        if cached is None:
            n = len(self.players)
            if n > MAX_ENUMERATION_PLAYERS:
                raise ValueError(
                    f"{n} players exceeds the enumeration bound of {MAX_ENUMERATION_PLAYERS}; "
                    "only shapley_sampling of a GameInstance runs beyond it"
                )
            optima = self.standalone_optima()
            sums = _fsum_subset_sums([optima[sp.id].value for sp in self.sps])
            cached = np.concatenate([np.zeros(sums.size), sums])
            cached.flags.writeable = False
            object.__setattr__(self, "_coalition_table", cached)
        return cached

    def value(self, coalition: Iterable[str]) -> float:
        """Characteristic function, see :func:`coalition_value`."""
        return coalition_value(self, coalition)


@dataclass(frozen=True)
class Allocation:
    """Resource split of the grand coalition: per-player millicores and the total."""

    h: dict[str, float]
    C: float


@dataclass(frozen=True)
class Settlement:
    """Per-player money triple closing the investment: revenue, payment, payoff.

    ``payoff[i] == revenue[i] - payment[i]`` for every player, and payments sum
    to the capacity bill ``d * C`` of the underlying allocation.
    """

    revenue: dict[str, float]
    payment: dict[str, float]
    payoff: dict[str, float]
    allocation: Allocation


def optimal_allocation_single(sp: ServiceProvider, market: MarketParams) -> SingleOptimum:
    """Best resource amount for one provider on its own and the profit it earns.

    Maximizes ``D * sum_t u(l_t, h) - d * h`` over ``h >= 0``. With the
    exponential utility the sum factors through the daily total L, the
    stationary point is ``(1/xi) * ln(D*xi*beta*L/d)``, and the optimum is 0
    whenever the log argument does not exceed 1. The profit is never negative
    (doing nothing costs nothing).
    """
    D, d, xi = market.D, market.d, market.xi
    beta = sp.beta
    daily_total = sp.load.total
    scale = D * beta * daily_total
    gain = D * xi * beta * daily_total / d
    h = math.log(gain) / xi if gain > 1.0 else 0.0
    return SingleOptimum(h_star=h, value=max(scale * (1.0 - math.exp(-xi * h)) - d * h, 0.0))


def coalition_value(game: GameInstance, coalition: Iterable[str]) -> float:
    """Total profit a coalition can lock in by sizing capacity optimally.

    Exactly zero when the owner is absent (nobody else can host capacity) or
    when no provider is present (no load to serve). Otherwise the member
    providers' standalone optima simply add up.
    """
    members = frozenset(coalition)
    unknown = members.difference(game.players)
    if unknown:
        raise ValueError(f"coalition references unknown players: {sorted(unknown)!r}")
    if NO not in members:
        return 0.0
    optima = game.standalone_optima()
    return math.fsum(optima[pid].value for pid in members if pid != NO)


def _two_sum(a, b):
    """``(s, err)`` with ``s = fl(a + b)`` and ``s + err == a + b`` exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fsum_subset_sums(x) -> np.ndarray:
    """``math.fsum`` of the finite ``x`` over every coalition, indexed by bitmask.

    Built by doubling (``t <- [t, t + x_k]``, so bit k is term k), but
    error-free: each sum is carried as ``hi + lo`` plus the rounding errors
    of the ``lo`` additions, whose magnitudes add up in ``slack`` (Ogita,
    Rump & Oishi 2005, "Accurate sum and dot product"). The rounded
    ``hi + lo`` is the correctly rounded exact sum, which is what ``fsum``
    returns, when ``slack`` is zero, or when the exact sum, known to within
    ``slack``, lies strictly inside the rounding interval of ``hi + lo``.
    Every other entry, and any that is not finite, is recomputed with
    ``fsum``.
    """
    x = [float(v) for v in x]
    size = 1 << len(x)
    hi, lo, slack = np.zeros(size), np.zeros(size), np.zeros(size)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, term in enumerate(x):
            h = 1 << k
            hi[h:2 * h], err = _two_sum(hi[:h], term)
            lo[h:2 * h], lost = _two_sum(lo[:h], err)
            slack[h:2 * h] = slack[:h] + np.abs(lost)
        # where slack is 0, hi + lo is the exact sum (on real games, everywhere)
        rough = np.flatnonzero(slack)
        sums, err = _two_sum(hi[rough], lo[rough])
        # inflated to cover the rounding of slack's own additions (one per term)
        bound = slack[rough] * (1.0 + 1e-10)
        up = (np.nextafter(sums, np.inf) - sums) * 0.5
        down = (sums - np.nextafter(sums, -np.inf)) * 0.5
        inside = (err + bound < up) & (err - bound > -down)
        sums = np.add(hi, lo, out=hi)
    redo = ~np.isfinite(sums)
    redo[rough[~inside]] = True
    for mask in np.flatnonzero(redo).tolist():
        sums[mask] = math.fsum(v for k, v in enumerate(x) if mask >> k & 1)
    return sums


def grand_allocation(game: GameInstance) -> Allocation:
    """Optimal capacity split when every player joins.

    The owner holds no resources; the total equals the sum of the providers'
    standalone optima.
    """
    optima = game.standalone_optima()
    h = {sp.id: optima[sp.id].h_star for sp in game.sps}
    h[NO] = 0.0
    return Allocation(h=h, C=math.fsum(optima[sp.id].h_star for sp in game.sps))


def provider_revenue(sp: ServiceProvider, market: MarketParams, h: float) -> float:
    """Revenue a provider collects over the whole horizon at allocation ``h``.

    Exact summation over the day's slots, scaled by the number of days.
    """
    return market.D * math.fsum(
        eval_utility(sp.beta, market.xi, load, h) for load in sp.load.values
    )
