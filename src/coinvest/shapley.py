"""Payoff division and stability analysis for transferable-utility games.

Three independent routes to the Shapley value (exact subset enumeration, a
closed form exploiting the owner's veto structure, and permutation sampling)
plus brute-force checkers for core membership and supermodularity, player
classification, and the up-front payment settlement.

Enumeration and the three checks only need an object with a ``players``
tuple and a ``coalition_table()`` method returning the value of every
coalition, indexed by membership bitmask over ``players``.
:meth:`~coinvest.game.GameInstance.coalition_table` builds and caches that
table once per instance, so every exact route and check shares it, and it is
bounded by :data:`~coinvest.game.MAX_ENUMERATION_PLAYERS`. The closed form,
sampling and the settlement need a full :class:`~coinvest.game.GameInstance`;
sampling reads only the providers' standalone profits, so it runs beyond the
bound. The checks' tolerances are the ``*_TOL`` and ``SAMPLING_SIGMAS``
constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .game import (
    NO,
    Coalition,
    GameInstance,
    PayoffVector,
    Settlement,
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

# arrival keys the sampler draws per reused buffer (256 KiB of float64)
_CHUNK_CELLS = 1 << 15


class ShapleyMethod(str, Enum):
    SUBSET_ENUMERATION = "enum"
    CLOSED_FORM = "closed"
    PERMUTATION_SAMPLING = "sample"


@dataclass(frozen=True)
class ShapleyResult:
    """Payoff vector plus how it was obtained.

    ``stderr`` carries one standard error per player for the sampling method
    and is None for the exact methods.
    """

    payoffs: dict[str, float]
    method: ShapleyMethod
    sample_count: int | None = None
    stderr: dict[str, float] | None = None


@dataclass(frozen=True)
class CoreCheck:
    """Outcome of the exhaustive core test.

    ``violating_coalition`` is the first coalition, in bitmask order, that
    could do better on its own.
    """

    in_core: bool
    violating_coalition: Coalition | None = None


@dataclass(frozen=True)
class SupermodularityReport:
    """Outcome of the brute-force supermodularity test.

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


def _split(values: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries of a bitmask-indexed array for every S avoiding player i, and for S + i.

    Both are shaped (bits above i, bits below i), so raveling either lists S
    in ascending bitmask order.
    """
    halves = values.reshape(-1, 2, 1 << i)
    return halves[:, 0], halves[:, 1]


def _subset_sums(x) -> np.ndarray:
    """Sum of ``x`` over every coalition, indexed by bitmask.

    Built by doubling, so each sum adds its terms in player order, exactly as
    a left-to-right loop over the coalition's members would.
    """
    sums = np.zeros(1)
    for term in x:
        sums = np.concatenate([sums, sums + term])
    return sums


def shapley_enumeration(game) -> ShapleyResult:
    """Exact Shapley payoffs by weighted subset enumeration.

    For each player, sums ``|S|! * (n-|S|-1)! / n!`` times its marginal
    contribution over every coalition S avoiding it.
    """
    players = tuple(game.players)
    n = len(players)
    table = game.coalition_table()
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = np.array([fact[s] * fact[n - s - 1] / fact[n] for s in range(n)])
    size = _subset_sums(np.ones(n)).astype(np.intp)
    payoffs = {}
    for i, pid in enumerate(players):
        without, joined = _split(table, i)
        payoffs[pid] = float(np.sum(weight[_split(size, i)[0]] * (joined - without)))
    return ShapleyResult(payoffs=payoffs, method=ShapleyMethod.SUBSET_ENUMERATION)


def shapley_closed_form(game: GameInstance) -> ShapleyResult:
    """O(N) Shapley payoffs exploiting the owner's veto structure.

    A provider contributes its standalone profit m_i exactly when the owner
    arrives before it, which happens in half of all orderings, so it gets
    m_i / 2; the owner collects the remaining half of the total.
    """
    optima = game.standalone_optima()
    payoffs = {sp.id: optima[sp.id].value / 2.0 for sp in game.sps}
    payoffs[NO] = math.fsum(opt.value for opt in optima.values()) / 2.0
    return ShapleyResult(payoffs=payoffs, method=ShapleyMethod.CLOSED_FORM)


def shapley_sampling(game: GameInstance, samples: int, seed: int = 0) -> ShapleyResult:
    """Monte Carlo Shapley estimate from random arrival orders.

    Averages each player's marginal contribution over ``samples`` uniformly
    random permutations (Castro, Gomez & Tejada 2009). No coalition value is
    read: a provider adds its standalone profit m_i exactly when the owner
    arrived before it, so its sum is m_i times a count of orders, and only the
    owner, who adds the m_j of the providers before it, is valued per order.
    Unbiased, deterministic for a fixed seed, and the estimates sum to the
    grand value up to rounding (each permutation telescopes). Reports one
    standard error per player.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    players = tuple(game.players)
    n = len(players)
    optima = game.standalone_optima()
    profit = np.array([optima[sp.id].value for sp in game.sps])
    # in units of a power of two near the largest m_i (exact), so that the
    # owner's squared values stay finite whenever they are
    unit = _unit(profit)
    profit /= unit
    rng = np.random.default_rng(seed)
    count = np.zeros(n - 1)  # per provider: orders where the owner arrived first
    owner_sum = owner_sq = 0.0
    # orders are taken in blocks of at most 2^17 orders and 2^21 keys; a block
    # keeps only the owner's value per order, so memory is bounded for any n
    # and does not grow with samples
    rows = max(1, min(1 << 17, (1 << 21) // n, samples))
    owner = np.empty(rows)
    # within a block, keys are drawn a chunk of orders at a time into reused
    # buffers: the same numbers in the same order as rng.random((samples, n))
    chunk = max(1, min(rows, _CHUNK_CELLS // n))
    keys = np.empty((chunk, n))
    # times[k, r] = keys[r, k], so the comparison's inner loop runs along the chunk
    times = np.empty((n, chunk))
    before = np.empty((n - 1, chunk))
    ones = np.ones(chunk)
    remaining = samples
    while remaining:
        block = min(remaining, rows)
        for start in range(0, block, chunk):
            c = min(chunk, block - start)
            # keys[r, k] is player k's arrival time in order r; the owner is last
            rng.random(out=keys[:c])
            t = times[:, :c]
            t[...] = keys[:c].T
            b = before[:, :c]
            np.less_equal(t[:-1], t[-1:], out=b)
            # an exact count: a BLAS mat-vec beats a reduction over a bool matrix
            count += c - b @ ones[:c]
            np.matmul(profit, b, out=owner[start : start + c])
        owner_sum += owner[:block].sum()
        owner_sq += owner[:block] @ owner[:block]
        remaining -= block
    sums = np.append(count * profit, owner_sum)
    sqs = np.append(count * profit * profit, owner_sq)
    mean = sums / samples
    var = np.maximum(sqs / samples - mean * mean, 0.0)
    if samples > 1:
        var *= samples / (samples - 1)
    se = np.sqrt(var / samples)
    return ShapleyResult(
        payoffs={pid: float(mean[i] * unit) for i, pid in enumerate(players)},
        method=ShapleyMethod.PERMUTATION_SAMPLING,
        sample_count=int(samples),
        stderr={pid: float(se[i] * unit) for i, pid in enumerate(players)},
    )


def _unit(values: np.ndarray) -> float:
    """The largest power of two not above the largest |value| (any, if all are 0)."""
    return math.ldexp(1.0, math.frexp(float(np.max(np.abs(values), initial=0.0)))[1] - 1)


def check_core(game, payoffs: PayoffVector) -> CoreCheck:
    """Exhaustively test whether a payoff vector sits in the core.

    Every coalition must collectively receive at least its own value and the
    payoffs must exactly exhaust the grand value; both tests allow a float
    noise of ``STABILITY_TOL`` relative to the grand value.
    """
    players = tuple(game.players)
    missing = [p for p in players if p not in payoffs]
    if missing:
        raise ValueError(f"payoff vector is missing players {missing!r}")
    x = [float(payoffs[p]) for p in players]
    table = game.coalition_table()
    grand = float(table[-1])
    noise = STABILITY_TOL * max(1.0, abs(grand))
    gap = _subset_sums(x) - table
    blocked = np.flatnonzero(gap < -noise)
    return CoreCheck(
        in_core=blocked.size == 0 and abs(math.fsum(x) - grand) <= noise,
        violating_coalition=_mask_coalition(int(blocked[0]), players) if blocked.size else None,
    )


def check_supermodularity(game) -> SupermodularityReport:
    """Test that marginal contributions grow with the coalition.

    Checks the local condition ``v(S+i) - v(S) <= v(S+i+j) - v(S+j) + noise``
    for every pair of players i, j and every coalition S avoiding both, which
    is equivalent to the nested condition over all T subseteq S (Shapley 1971,
    "Cores of convex games"). The noise is ``STABILITY_TOL`` relative to the
    grand value, as in :func:`check_core`.
    """
    players = tuple(game.players)
    table = game.coalition_table()
    noise = STABILITY_TOL * max(1.0, abs(float(table[-1])))
    for j, pid in enumerate(players):
        without, joined = _split(table, j)
        gain = joined - without
        for i in range(j):
            # v(S+j) - v(S) against v(S+i+j) - v(S+i), S avoiding i and j
            before, after = _split(gain, i)
            shrunk = np.flatnonzero(after - before < -noise)
            if shrunk.size:
                masks = _split(_split(np.arange(table.size), j)[0], i)[0]
                smaller = _mask_coalition(int(masks.ravel()[shrunk[0]]), players)
                return SupermodularityReport(
                    holds=False, counterexample=(pid, smaller, smaller | {players[i]})
                )
    return SupermodularityReport(holds=True, counterexample=None)


def classify_players(game) -> dict[str, PlayerFlags]:
    """Flag veto players and null players.

    A veto player makes every coalition without it worth exactly 0; a null
    player adds exactly 0 to every coalition. In a degenerate all-zero game a
    player can be both.
    """
    table = game.coalition_table()
    flags = {}
    for i, pid in enumerate(game.players):
        without, joined = _split(table, i)
        flags[pid] = PlayerFlags(
            veto=not np.any(without),
            null=not np.any(joined != without),
        )
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
    missing = [p for p in players if p not in payoffs]
    if missing:
        raise ValueError(f"payoff vector is missing players {missing!r}")
    grand = coalition_value(game, players)
    total = math.fsum(float(payoffs[p]) for p in players)
    if abs(total - grand) > SETTLE_TOL * max(1.0, abs(grand)):
        raise ValueError(
            f"payoffs sum to {total!r} but the grand coalition is worth {grand!r}"
        )
    alloc = grand_allocation(game)
    revenue = {sp.id: provider_revenue(sp, game.market, alloc.h[sp.id]) for sp in game.sps}
    revenue[NO] = 0.0
    payoff = {p: float(payoffs[p]) for p in players}
    payment = {p: revenue[p] - payoff[p] for p in players}
    return Settlement(revenue=revenue, payment=payment, payoff=payoff, allocation=alloc)
