"""Domain model of the capacity coinvestment game.

One network owner (NO) hosts computational capacity at its nodes; N service
providers (SPs) buy into that capacity to serve their user load. A coalition
that includes the owner picks a total capacity C (millicores) and a split
``h`` of it among its providers so as to maximize the revenue earned over the
investment horizon minus the capital cost ``d * C``. Without the owner no
capacity can be deployed and a coalition is worth exactly zero.

Because the objective decomposes per provider, a coalition's value is the sum
of each member provider's standalone optimum, which is what makes the rest of
the analysis (payoff division, stability checks) tractable. A
:class:`GameInstance` keeps those profits m_i and the grand value v(N), summed
once when it is made, and every route and check reads them there.
:func:`coalition_value` sums any one coalition; the table of all 2^n of
them, which only the exact oracle reads, is built bit-identically by
:func:`coinvest.oracle.coalition_table`.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from importlib import import_module
from typing import Iterable, Mapping, NamedTuple

#: Player id of the network owner. It hosts capacity, serves no load itself.
NO = "NO"

DAYS_PER_YEAR = 365

#: Every exact route and check enumerates all 2^n coalitions; capped here.
MAX_ENUMERATION_PLAYERS = 20

#: A coalition is any subset of the player ids of a game.
Coalition = frozenset[str]

#: Payoff vectors map every player id to money.
PayoffVector = Mapping[str, float]


def _moved(module: str, homes: Mapping[str, str]):
    """A module ``__getattr__`` (PEP 562) for ``module``: each name in ``homes``
    is read, at each access, off the coinvest module that ``homes`` maps it
    to, which loads on first use; so it is the defining module's object."""

    def __getattr__(name):
        if name not in homes:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(import_module(f"{__package__}.{homes[name]}"), name)

    return __getattr__


def _shown(value) -> str:
    """``repr(value)`` for a message; past 80 characters, its first 80, type and length."""
    text = repr(value)
    if len(text) <= 80:
        return text
    return f"{text[:80]}... ({type(value).__name__}, {len(text)} characters in all)"


class _Validated:
    """Base of a named tuple that checks its fields in ``__new__``. Its ``_make``,
    and so its ``_replace``, build through the class, so a copy is checked too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class MarketParams(_Validated,
                   namedtuple("MarketParams", "d Y T xi", defaults=(0.05, 1, 96, 1e-3))):
    """Economic and temporal constants of one investment.

    d:  capacity price, dollars per millicore (CAPEX)
    Y:  investment duration in whole years
    T:  timeslots per day (96 = quarter-hour slots)
    xi: diminishing-return shape, per millicore; larger xi saturates sooner
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (isinstance(self.Y, int) and self.Y >= 1):
            raise ValueError(f"Y must be an integer >= 1, got {self.Y!r}")
        if not (isinstance(self.T, int) and self.T >= 1):
            raise ValueError(f"T must be an integer >= 1, got {self.T!r}")
        if not (self.d > 0.0 and math.isfinite(self.d)):
            raise ValueError(f"d must be a finite number > 0, got {self.d!r}")
        if not (self.xi > 0.0 and math.isfinite(self.xi)):
            raise ValueError(f"xi must be a finite number > 0, got {self.xi!r}")
        return self

    @property
    def D(self) -> int:
        """Days in the investment horizon (365 per year)."""
        return DAYS_PER_YEAR * self.Y


class LoadProfile:
    """Expected number of requests per timeslot over one day; its length is its
    slot count, so it is no named tuple. Its two attributes are read-only."""

    __slots__ = ("_values", "_total")

    def __init__(self, values):
        vals = tuple(float(v) for v in values)
        for slot, v in enumerate(vals):
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"load at slot {slot} must be finite and >= 0, got {v!r}")
        try:
            self._total = math.fsum(vals)
        except OverflowError:
            raise ValueError("the daily load total overflows a float") from None
        self._values = vals

    values = property(lambda self: self._values, doc="Requests per slot, as floats.")
    total = property(lambda self: self._total, doc="Daily total, summed once when made.")

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other):
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"LoadProfile(values={self._values!r})"


class ServiceProvider(_Validated, namedtuple("ServiceProvider", "id beta load")):
    """One provider: a benefit factor (dollars per served request) and its load."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.beta >= 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta!r}")
        return self


class SingleOptimum(NamedTuple):
    """Best standalone resource amount for a provider and the profit it yields."""

    h_star: float
    value: float


class GameInstance(_Validated, namedtuple("GameInstance", "market sps")):
    """The full game: market constants plus an ordered list of providers.

    The owner is implicit; it appears in :attr:`players` under the id ``NO``
    with zero load and zero benefit factor. Instances are immutable, so all
    derived quantities may be evaluated concurrently. Each keeps its
    standalone optima, its profits and its grand value, made once in
    ``__new__``, so it is not slotted; the two attributes are read-only.
    """

    def __new__(cls, market: MarketParams, sps):
        sps = tuple(sps)
        if len(sps) < 1:
            raise ValueError("a game needs at least one service provider")
        ids = [sp.id for sp in sps]
        if len(set(ids)) != len(ids):
            repeated = [pid for pid, k in Counter(ids).items() if k > 1]
            raise ValueError(f"provider ids must be unique, got {_shown(repeated)} more than once")
        if NO in ids:
            raise ValueError(f"provider id {NO!r} is reserved for the network owner")
        for sp in sps:
            if len(sp.load) != market.T:
                raise ValueError(
                    f"provider {_shown(sp.id)} has {len(sp.load)} load slots, expected T={market.T}"
                )
        optima = {sp.id: optimal_allocation_single(sp, market) for sp in sps}
        for pid, opt in optima.items():
            if not (math.isfinite(opt.h_star) and math.isfinite(opt.value)):
                raise ValueError(
                    f"provider {_shown(pid)}: standalone optimum {opt!r} must be finite"
                )
        # every coalition value is a subset sum of these profits, the grand
        # value the largest; fsum of finite floats is finite or raises OverflowError
        profits = tuple(opt.value for opt in optima.values())
        try:
            grand = math.fsum(profits)
        except OverflowError:
            raise ValueError(
                f"providers {_shown(ids)}: their standalone profits sum to more than the "
                "largest finite float"
            ) from None
        self = super().__new__(cls, market, sps)
        self._optima, self._profits, self._v_grand = optima, profits, grand
        return self

    profits = property(lambda self: self._profits,
                       doc="Standalone profits m_i, as a tuple in provider order.")
    v_grand = property(lambda self: self._v_grand,
                       doc="Grand value v(N), the fsum of the profits, summed once when made.")

    @property
    def players(self) -> tuple[str, ...]:
        """All player ids, providers first, the owner last."""
        return tuple(sp.id for sp in self.sps) + (NO,)

    def standalone_optima(self) -> dict[str, SingleOptimum]:
        """Per-provider optimum (h*, profit), computed once at construction."""
        return self._optima


class CoalitionTable(NamedTuple):
    """Every coalition's value, read-only, indexed by membership bitmask over
    ``players``: a tuple of floats or a read-only ndarray."""

    players: tuple[str, ...]
    values: tuple[float, ...] | np.ndarray


class Allocation(NamedTuple):
    """Resource split of the grand coalition: per-player millicores and the total."""

    h: dict[str, float]
    C: float


class Settlement(NamedTuple):
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
        raise ValueError(f"coalition references unknown players: {_shown(sorted(unknown))}")
    if NO not in members:
        return 0.0
    optima = game.standalone_optima()
    return math.fsum(optima[pid].value for pid in members if pid != NO)


def _payoff_floats(players, payoffs: PayoffVector) -> dict[str, float]:
    """Each player's payoff as a float; the ValueError for missing ones names the first."""
    missing = [p for p in players if p not in payoffs]
    if missing:
        raise ValueError(f"payoff vector is missing players {_shown(missing)}")
    return {p: float(payoffs[p]) for p in players}


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

    Exact summation over the day's slots of ``beta * l_t * (1 - exp(-xi * h))``,
    the money one slot earns, scaled by the number of days. The served share
    depends on ``h`` only, so it is computed, and ``h`` checked, once per call.
    """
    if not (h >= 0.0):
        raise ValueError(f"h must be >= 0, got {h!r}")
    served = 1.0 - math.exp(-market.xi * h)
    beta = sp.beta
    return market.D * math.fsum([beta * load * served for load in sp.load.values])
