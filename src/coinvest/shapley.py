"""Payoff division and stability analysis for transferable-utility games.

Three independent routes to the Shapley value (exact subset enumeration, a
closed form exploiting the owner's veto structure, and permutation sampling),
two checkers each for core membership, supermodularity and player
classification, and the up-front payment settlement.

The ``*_structural`` checks decide a coinvestment game in O(n) from its
providers' standalone profits: the game is convex (Shapley 1971, "Cores of
convex games"), so every verdict can be read off the profits. They need a
full :class:`~coinvest.game.GameInstance` and run on instances of any size.

Enumeration and the brute-force checks read a
:class:`~coinvest.game.CoalitionTable`, which their caller builds once with
:func:`~coinvest.game.coalition_table` (at most
:data:`~coinvest.game.MAX_ENUMERATION_PLAYERS` players) and passes to every
exact route and check it runs. The closed form,
sampling and the settlement need a full :class:`~coinvest.game.GameInstance`;
sampling reads only the providers' standalone profits, so it runs beyond the
bound. The checks' tolerances are the ``*_TOL`` and ``SAMPLING_SIGMAS``
constants below.

Each exact route and check has one body, written over a few array primitives
(``_split``, ``_difference``, ``_first_below``, ``_subset_sums`` and the
like). Each primitive has a list form, for a table whose values are a
tuple, and an ndarray form, which imports numpy; both do the same float
operations in the same order, so the verdicts and counterexamples agree.
Only enumeration sums differently: with ``fsum`` on lists. So a process that
reads no ndarray table never loads numpy. Brute-force supermodularity and
enumeration first look for a veto player, whose avoiding half of the table
is all zeros, and where they can read only the other half.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from itertools import chain, compress, cycle
from operator import mul, sub
from random import Random
from typing import NamedTuple

from .game import (
    NO,
    Coalition,
    CoalitionTable,
    GameInstance,
    PayoffVector,
    Settlement,
    _payoff_floats,
    coalition_value,
    grand_allocation,
    provider_revenue,
)

#: Float noise the core and supermodularity checks allow, relative to the grand value
#: (or to 1, if that is smaller).
STABILITY_TOL = 1e-9
#: Largest relative gap between two exact Shapley routes, or between a payoff
#: and its revenue minus payment.
AGREEMENT_TOL = 1e-9
#: How far payoffs may miss the grand value, and payments the capacity bill,
#: relative to that value or bill (or to 1, if that is smaller).
SETTLE_TOL = 1e-6
#: Settlement balance also allows this much of the summed |revenue| + |payoff|,
#: since each payment carries the rounding of both.
SETTLE_TERMS_TOL = 1e-9
#: Standard errors a sampled payoff may sit from the exact one: the gate spans
#: hundreds of estimates per run, where a 3-sigma cut trips spuriously.
SAMPLING_SIGMAS = 4.0

# orders per block of the arrival-key stream: each block draws its own
# streams, so a block's planes are c-bit ints of at most 8 KiB
_BLOCK = 1 << 16


class ShapleyMethod(str, Enum):
    """How ``run`` splits the payoffs; enumeration is only ``verify``'s oracle."""

    CLOSED_FORM = "closed"
    PERMUTATION_SAMPLING = "sample"


class ShapleyResult(NamedTuple):
    """Payoff vector of one Shapley route.

    ``stderr`` carries, for the sampling method, each player's exact standard
    error of the estimate under uniform random orders (not one estimated from
    the orders drawn), and is None for the exact methods.
    """

    payoffs: dict[str, float]
    sample_count: int | None = None
    stderr: dict[str, float] | None = None


class CoreCheck(NamedTuple):
    """Outcome of a core test.

    ``violating_coalition`` is a coalition that could do better on its own:
    the first in bitmask order for :func:`check_core`, the one with the least
    slack for :func:`check_core_structural`.
    """

    in_core: bool
    violating_coalition: Coalition | None = None


class SupermodularityReport(NamedTuple):
    """Outcome of a supermodularity test.

    On failure, ``counterexample`` is a ``(player, smaller, larger)`` triple of
    nested coalitions where the player's marginal contribution shrank.
    """

    holds: bool
    counterexample: tuple[str, Coalition, Coalition] | None = None


class PlayerFlags(NamedTuple):
    veto: bool
    null: bool


def _mask_coalition(mask: int, players: tuple[str, ...]) -> Coalition:
    return frozenset(players[i] for i in range(len(players)) if mask >> i & 1)


def _listed(values) -> bool:
    """Whether ``values`` take the list forms of the primitives (a tuple or a
    list) rather than the ndarray forms."""
    return isinstance(values, (tuple, list))


def _split(values, i: int):
    """Entries of a bitmask-indexed array for every S avoiding player i, and for S + i.

    Each lists S in ascending bitmask order: a list's halves are lists, an
    ndarray's are views shaped (bits above i, bits below i), raveled in that
    order.
    """
    h = 1 << i
    if _listed(values):
        # runs of h entries alternate between the halves: the fastest way to
        # copy them out depends on h
        if h == 1:
            return values[0::2], values[1::2]
        if h < 32:
            low = (True,) * h + (False,) * h
            return list(compress(values, cycle(low))), list(compress(values, cycle(low[::-1])))
        blocks = range(0, len(values), 2 * h)
        return (list(chain.from_iterable(values[k:k + h] for k in blocks)),
                list(chain.from_iterable(values[k + h:k + 2 * h] for k in blocks)))
    halves = values.reshape(-1, 2, h)
    return halves[:, 0], halves[:, 1]


def _difference(a, b, in_place: bool = False):
    """``a - b`` entrywise, in the form of ``a``; ``in_place`` writes it over ``a``."""
    if not in_place:
        return list(map(sub, a, b)) if _listed(a) else a - b
    if _listed(a):
        a[:] = map(sub, a, b)
    else:
        a -= b
    return a


def _first_below(x, bound: float) -> int | None:
    """Index of the first entry of ``x`` (an ndarray's raveled) below ``bound``, or None."""
    if _listed(x):
        if min(x, default=bound) >= bound:
            return None
        return next((k for k, v in enumerate(x) if v < bound), None)
    below = (x < bound).ravel().nonzero()[0]
    return int(below[0]) if below.size else None


def _subset_sums(x, like):
    """Sum of ``x`` over every coalition, indexed by bitmask: a list, or an
    ndarray of the dtype of ``x`` if ``like`` is an ndarray.

    Built by doubling (``t[h:2h] = t[:h] + x_k``, so bit k is term k), so
    each sum adds its terms in player order, exactly as a left-to-right loop
    over the coalition's members would.
    """
    if _listed(like):
        sums = [0]
        for term in x:
            sums += [s + term for s in sums]
        return sums
    import numpy as np

    x = np.asarray(x)
    sums = np.zeros(1 << x.size, dtype=x.dtype)
    for k, term in enumerate(x):
        h = 1 << k
        np.add(sums[:h], term, out=sums[h:2 * h])
    return sums


def _take(items: list, index):
    """``items[k]`` for each k of ``index``, in its form."""
    if _listed(index):
        return [items[k] for k in index]
    import numpy as np

    # with no terms, _subset_sums gives float zeros (np.asarray([]) is float)
    return np.asarray(items)[np.asarray(index, dtype=np.intp)]


def _weighted_sum(weight, x) -> float:
    """Sum of ``weight * x``: on lists with ``fsum``; an ndarray ``x`` is
    overwritten with the products, shaped like it, and summed by numpy."""
    if _listed(x):
        return math.fsum(map(mul, weight, x))
    x *= weight.reshape(x.shape)
    return float(x.sum())


def _any(x) -> bool:
    """Whether any entry of ``x`` is nonzero."""
    return any(x) if _listed(x) else bool(x.any())


def _bounds(x) -> tuple[float, float]:
    """The least and the greatest entry of ``x``."""
    if _listed(x):
        return min(x), max(x)
    return float(x.min()), float(x.max())


def _with_zero_bit(mask: int, b: int) -> int:
    """``mask`` with a 0 put in at bit ``b``, its bits from ``b`` up moved up one."""
    return (mask >> b << b + 1) | (mask & (1 << b) - 1)


def _veto_half(table: CoalitionTable):
    """``(k, half)``: the highest-index player k whose avoiding half of the
    table is all exact zeros, and the other half, ``_split(values, k)[1]``,
    indexed by the other players' coalitions; ``(None, None)`` if no player is
    veto. A coinvestment game's owner is its last player and veto."""
    players, values = table
    for k in reversed(range(len(players))):
        without, joined = _split(values, k)
        if not _any(without):
            return k, joined
    return None, None


def shapley_enumeration(table: CoalitionTable) -> ShapleyResult:
    """Exact Shapley payoffs by weighted subset enumeration.

    For each player, sums ``|S|! * (n-|S|-1)! / n!`` times its marginal
    contribution over every coalition S avoiding it. If a player k is veto
    (:func:`_veto_half`), every other player's marginal over the S avoiding k
    is 0 - 0, so its sum runs over the S = T + k alone.
    """
    players, values = table
    n = len(players)
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = [fact[s] * fact[n - s - 1] / fact[n] for s in range(n)]
    # raveled, the coalitions avoiding any one player list the other players'
    # subsets in bitmask order, so one array of weights serves every player;
    # its upper half, weight[|T| + 1], serves the coalitions T + k
    coef = _take(weight, _subset_sums([1] * (n - 1), values))
    upper = coef[len(coef) // 2:]
    k, half = _veto_half(table)
    payoffs = {}
    for i, pid in enumerate(players):
        if k is None or i == k:
            without, joined = _split(values, i)
            payoffs[pid] = _weighted_sum(coef, _difference(joined, without))
        else:
            without, joined = _split(half, i - (i > k))
            payoffs[pid] = _weighted_sum(upper, _difference(joined, without))
    return ShapleyResult(payoffs=payoffs)


def shapley_closed_form(game: GameInstance) -> ShapleyResult:
    """O(N) Shapley payoffs exploiting the owner's veto structure.

    A provider contributes its standalone profit m_i exactly when the owner
    arrives before it, which happens in half of all orderings, so it gets
    m_i / 2; the owner collects the remaining half of the total.
    """
    optima = game.standalone_optima()
    payoffs = {sp.id: optima[sp.id].value / 2.0 for sp in game.sps}
    payoffs[NO] = math.fsum(opt.value for opt in optima.values()) / 2.0
    return ShapleyResult(payoffs=payoffs)


def shapley_sampling(game: GameInstance, samples: int, seed: int = 0) -> ShapleyResult:
    """Monte Carlo Shapley estimate from random arrival orders.

    Averages each player's marginal contribution over ``samples`` uniformly
    random permutations (Castro, Gomez & Tejada 2009). No coalition value is
    read: a provider adds its standalone profit m_i exactly when the owner
    arrived before it, so its sum is m_i times a count of orders, and the
    owner adds the m_j of the providers before it, so its sum is read off the
    same counts (:func:`_order_counts`). Unbiased, deterministic for a fixed
    seed on any platform, and the estimates sum to the grand value up to
    rounding (each permutation telescopes).

    Reports each estimate's exact standard error under uniform orders. A
    provider's marginal is m_i or 0 with probability 1/2 each, so its
    standard error is m_i / (2 sqrt(samples)). The owner's marginal is the
    sum of m_j over the providers before it: each comes first with
    probability 1/2 and any two with 1/3, so its variance is
    sum(m^2)/6 + (sum m)^2/12 per order.

    The orders depend only on the player count, ``samples`` and ``seed``, so
    games of one size sampled with one seed share them; ``seed`` must lie in
    [0, 2^64) and ``samples`` in [1, 2^48], which keeps the streams of
    :func:`_order_counts` distinct.
    """
    if not 1 <= samples <= _BLOCK << 32:
        raise ValueError(f"samples must be >= 1 and <= 2**48, got {samples!r}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed!r}")
    players = tuple(game.players)
    # in units of a power of two near the largest m_i (exact), so that the
    # owner's squared profits stay finite whenever the profits are
    profits = _profits(game)
    unit = _unit(profits)
    profit = [m / unit for m in profits]
    count = _order_counts(len(players), samples, seed)
    # the owner adds m_j in each of the samples - count[j] orders where
    # provider j came first
    owner_sum = math.fsum(m * (samples - c) for m, c in zip(profit, count))
    mean = [c * m / samples for m, c in zip(profit, count)] + [owner_sum / samples]
    owner_var = math.fsum(m * m for m in profit) / 6.0 + math.fsum(profit) ** 2 / 12.0
    root = math.sqrt(samples)
    se = [m / 2.0 / root for m in profit] + [math.sqrt(owner_var) / root]
    return ShapleyResult(
        payoffs={pid: mean[i] * unit for i, pid in enumerate(players)},
        sample_count=int(samples),
        stderr={pid: se[i] * unit for i, pid in enumerate(players)},
    )


@lru_cache(maxsize=1)
def _order_counts(n: int, samples: int, seed: int) -> tuple[int, ...]:
    """Per provider, the number of the ``samples`` orders of ``n`` players,
    drawn from ``seed``, in which the owner (the last player) arrived first.

    Each player's arrival time in an order is an infinite-precision binary
    fraction. The orders come in blocks of ``_BLOCK``; in block q, player k's
    stream is ``Random((k << 96) | (q << 64) | seed)``, an MT19937 generator
    seeded by an injective packing, so no two players of a block share one.
    Plane b of a player is the stream's b-th ``getrandbits(c)`` for a block
    of c orders: bit i is bit b (0 the most significant) of its time in the
    block's order i. A provider's times are compared with the owner's a plane
    at a time, across all c orders at once, with ``lt`` holding the orders
    where the owner is known to come first and ``eq`` those still tied;
    planes are drawn until no order is tied, so the comparison is exact and
    no order ends in a tie. The owner's planes are drawn once per block and
    reused by every provider, so the working set is one block of them.

    Cached with one entry: the instances of a config come group by group,
    each group of one player count, and all sample with the config's seed,
    so the orders are drawn once per group.
    """
    owner = n - 1
    count = [0] * owner
    for q, start in enumerate(range(0, samples, _BLOCK)):
        c = min(_BLOCK, samples - start)
        owner_bits = Random(owner << 96 | q << 64 | seed).getrandbits
        owner_planes = []
        for k in range(owner):
            bits = Random(k << 96 | q << 64 | seed).getrandbits
            lt, eq = 0, (1 << c) - 1
            b = 0
            while eq:
                if b == len(owner_planes):
                    owner_planes.append(owner_bits(c))
                p = bits(c)
                d = eq & (owner_planes[b] ^ p)
                lt |= d & p
                eq ^= d
                b += 1
            count[k] += lt.bit_count()
    return tuple(count)


def _unit(values: list[float]) -> float:
    """The largest power of two not above the largest |value| (any, if all are 0)."""
    return math.ldexp(1.0, math.frexp(max(map(abs, values), default=0.0))[1] - 1)


def check_core(table: CoalitionTable, payoffs: PayoffVector) -> CoreCheck:
    """Exhaustively test whether a payoff vector sits in the core.

    Every coalition must collectively receive at least its own value and the
    payoffs must exactly exhaust the grand value; both tests allow a float
    noise of ``STABILITY_TOL`` relative to the grand value.
    """
    players, values = table
    x = list(_payoff_floats(players, payoffs).values())
    grand = float(values[-1])
    noise = STABILITY_TOL * max(1.0, abs(grand))
    gap = _difference(_subset_sums(x, values), values, in_place=True)
    blocked = _first_below(gap, -noise)
    return CoreCheck(
        in_core=blocked is None and abs(math.fsum(x) - grand) <= noise,
        violating_coalition=None if blocked is None else _mask_coalition(blocked, players),
    )


def check_supermodularity(table: CoalitionTable) -> SupermodularityReport:
    """Test that marginal contributions grow with the coalition.

    Checks the local condition ``v(S+i) - v(S) <= v(S+i+j) - v(S+j) + noise``
    for every pair of players i, j and every coalition S avoiding both, which
    is equivalent to the nested condition over all T subseteq S (Shapley 1971,
    "Cores of convex games"). The noise is ``STABILITY_TOL`` relative to the
    grand value, as in :func:`check_core`.

    That pair scan is O(n^2 2^n). It runs only if the O(n 2^n) bound of
    :func:`_certified_supermodular` proves nothing; on a coinvestment game,
    whose entries are rounded sums, it always proves. So the verdict, and
    the first counterexample, are the scan's.
    """
    players, values = table
    noise = STABILITY_TOL * max(1.0, abs(float(values[-1])))
    if _certified_supermodular(table, noise):
        return SupermodularityReport(holds=True, counterexample=None)
    for j, pid in enumerate(players):
        without, joined = _split(values, j)
        gain = _difference(joined, without)
        for i in range(j):
            # v(S+j) - v(S) against v(S+i+j) - v(S+i), S avoiding i and j
            before, after = _split(gain, i)
            shrunk = _first_below(_difference(after, before), -noise)
            if shrunk is not None:
                # shrunk indexes the coalitions of the players but i and j
                mask = _with_zero_bit(_with_zero_bit(shrunk, i), j)
                smaller = _mask_coalition(mask, players)
                return SupermodularityReport(
                    holds=False, counterexample=(pid, smaller, smaller | {players[i]})
                )
    return SupermodularityReport(holds=True, counterexample=None)


def _certified_supermodular(table: CoalitionTable, noise: float) -> bool:
    """Whether every second difference :func:`check_supermodularity`'s pair
    scan forms is at least ``-noise``, proven from bounds in O(n 2^n); False
    when unproven, so the scan decides.

    Let k be veto (:func:`_veto_half`) and, for each other player j, g_j the
    gains v(T+k+j) - v(T+k), with least lo_j and greatest hi_j. A second
    difference over S, i and j is 0 - 0 if S, i and j all avoid k; it is an
    entry of g_j (or g_i) if i or j is k, since the subtrahends are 0 and
    x - 0 == x; otherwise S = T + k, and it is fl(a - b) with a and b entries
    of g_j, so at least fl(lo_j - hi_j), rounding being monotone. So it holds
    if every lo_j and every fl(lo_j - hi_j) is at least ``-noise``. A NaN
    entry, whose differences the scan never flags, either makes a bound NaN,
    which proves nothing, or is skipped by ``min`` and ``max``.
    """
    k, half = _veto_half(table)
    if k is None:
        return False
    for j in range(len(table.players) - 1):  # the players but k, as the half indexes them
        without, joined = _split(half, j)
        lo, hi = _bounds(_difference(joined, without))
        if not (lo >= -noise and lo - hi >= -noise):
            return False
    return True


def classify_players(table: CoalitionTable) -> dict[str, PlayerFlags]:
    """Flag veto players and null players.

    A veto player makes every coalition without it worth exactly 0; a null
    player adds exactly 0 to every coalition. In a degenerate all-zero game a
    player can be both.
    """
    players, values = table
    flags = {}
    for i, pid in enumerate(players):
        without, joined = _split(values, i)
        flags[pid] = PlayerFlags(
            veto=not _any(without),
            null=not _any(_difference(joined, without)),
        )
    return flags


def _profits(game: GameInstance) -> list[float]:
    """The providers' standalone profits m_i, in provider order."""
    optima = game.standalone_optima()
    return [optima[sp.id].value for sp in game.sps]


def check_core_structural(game: GameInstance, payoffs: PayoffVector) -> CoreCheck:
    """Core membership of a payoff vector, read off the standalone profits in O(n).

    With v(S) = [NO in S] * sum of the m_i in S, the least slack x(S) - v(S)
    over coalitions without the owner is the sum of the negative x_i, and
    over coalitions with it x_NO plus the sum of the negative x_i - m_i; each
    minimiser takes exactly the providers whose term is negative. Both sums
    are rounded once (``fsum``), and both tests allow the noise of
    :func:`check_core`, so the verdicts agree. On failure the coalition named
    is the one with the least slack.
    """
    x = _payoff_floats(game.players, payoffs)
    profits = _profits(game)
    grand = math.fsum(profits)
    noise = STABILITY_TOL * max(1.0, abs(grand))
    without = [sp.id for sp in game.sps if x[sp.id] < 0.0]
    short = [(sp.id, m) for sp, m in zip(game.sps, profits) if x[sp.id] < m]
    slack = math.fsum(x[p] for p in without)
    owner_slack = math.fsum([x[NO], *(x[p] for p, _ in short), *(-m for _, m in short)])
    weakest = frozenset(without)
    if owner_slack < slack:
        slack, weakest = owner_slack, frozenset([NO, *(p for p, _ in short)])
    blocked = slack < -noise
    return CoreCheck(
        in_core=not blocked and abs(math.fsum(x.values()) - grand) <= noise,
        violating_coalition=weakest if blocked else None,
    )


def check_supermodularity_structural(game: GameInstance) -> SupermodularityReport:
    """Supermodularity of a coinvestment game, read off the standalone profits in O(n).

    The second difference v(S+i+j) - v(S+i) - v(S+j) + v(S) is m_j when i is
    the owner and j a provider not in S, and 0 otherwise. So the game is
    supermodular iff every m_j >= -noise, with the noise of
    :func:`check_supermodularity`; since every standalone profit is floored
    at 0, it always is. A counterexample is the one the brute-force test
    finds first: the owner adds less to {j} than to the empty coalition.
    """
    profits = _profits(game)
    noise = STABILITY_TOL * max(1.0, abs(math.fsum(profits)))
    for sp, m in zip(game.sps, profits):
        if m < -noise:
            return SupermodularityReport(
                holds=False, counterexample=(NO, frozenset(), frozenset([sp.id]))
            )
    return SupermodularityReport(holds=True, counterexample=None)


def classify_players_structural(game: GameInstance) -> dict[str, PlayerFlags]:
    """Veto and null flags of a coinvestment game, read off the standalone profits in O(n).

    The owner is always veto, and null iff every m_i is 0. A provider is null
    iff its m_i is 0, and veto iff every other provider's is. Profits are
    compared with exact 0, as :func:`classify_players` compares values.
    """
    profits = _profits(game)
    nonzero = sum(m != 0.0 for m in profits)
    flags = {
        sp.id: PlayerFlags(veto=nonzero - (m != 0.0) == 0, null=m == 0.0)
        for sp, m in zip(game.sps, profits)
    }
    flags[NO] = PlayerFlags(veto=True, null=nonzero == 0)
    return flags


def settle(game: GameInstance, payoffs: PayoffVector) -> Settlement:
    """Split the up-front capacity bill implied by a payoff vector.

    Each provider's revenue is what its served load earns over the horizon at
    the grand-coalition allocation; the owner earns nothing directly. The
    payment closes the gap between revenue and promised payoff, so payments
    sum to the capacity cost ``d * C`` and players with more payoff than
    revenue (always the owner) are paid rather than paying.
    """
    players = game.players
    payoff = _payoff_floats(players, payoffs)
    grand = coalition_value(game, players)
    total = math.fsum(payoff.values())
    if abs(total - grand) > SETTLE_TOL * max(1.0, abs(grand)):
        raise ValueError(
            f"payoffs sum to {total!r} but the grand coalition is worth {grand!r}"
        )
    alloc = grand_allocation(game)
    revenue = {sp.id: provider_revenue(sp, game.market, alloc.h[sp.id]) for sp in game.sps}
    revenue[NO] = 0.0
    payment = {p: revenue[p] - payoff[p] for p in players}
    return Settlement(revenue=revenue, payment=payment, payoff=payoff, allocation=alloc)
