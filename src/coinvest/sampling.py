"""Permutation sampling of the Shapley value, with the estimate's exact
standard errors.

``coinvest run --method sample`` and ``coinvest verify`` load this module on
first use; a closed ``run`` never does. The sampler reads only the
providers' standalone profits, so it runs on games of any size.
"""

from __future__ import annotations

import math
from functools import lru_cache
from random import Random

from .game import GameInstance
from .shapley import ShapleyResult

# orders per block of the arrival-key stream: each block draws its own
# streams, so a block's planes are c-bit ints of at most 8 KiB
_BLOCK = 1 << 16


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
    unit = _unit(game.profits)
    profit = [m / unit for m in game.profits]
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


def _unit(values) -> float:
    """The largest power of two not above the largest |value| (any, if all are 0)."""
    return math.ldexp(1.0, math.frexp(max(map(abs, values), default=0.0))[1] - 1)
