"""Payoff division and stability analysis for transferable-utility games.

The Shapley value's closed form, which exploits the owner's veto structure;
the O(n) structural checks of core membership, supermodularity and player
classification; and the up-front payment settlement. This is all a closed
``coinvest run`` reads.

The ``*_structural`` checks decide a coinvestment game in O(n) from its
providers' standalone profits: the game is convex (Shapley 1971, "Cores of
convex games"), so every verdict can be read off the profits. They need a
full :class:`~coinvest.game.GameInstance` and run on instances of any size.
The checks' tolerances are the ``*_TOL`` and ``SAMPLING_SIGMAS`` constants
below.

The other two routes to the Shapley value live in modules that load on
first use: exact enumeration, with the brute-force checks over a coalition
table, in :mod:`coinvest.oracle` (``verify`` only), and permutation sampling
in :mod:`coinvest.sampling` (``verify`` and ``run --method sample``). Their
public names are re-exported here lazily, as the same objects.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .game import (
    NO,
    Coalition,
    GameInstance,
    PayoffVector,
    Settlement,
    _moved,
    _payoff_floats,
    grand_allocation,
    provider_revenue,
)

# bench/spans.py wraps these by their names here, so they stay readable here
__getattr__ = _moved(__name__, {
    **dict.fromkeys(
        ("shapley_enumeration", "check_core", "check_supermodularity", "classify_players"),
        "oracle",
    ),
    "shapley_sampling": "sampling",
})

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


def _noise(grand) -> float:
    """The float noise of :data:`STABILITY_TOL` on a game whose grand value is ``grand``."""
    return STABILITY_TOL * max(1.0, abs(float(grand)))


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
    the first in bitmask order for :func:`~coinvest.oracle.check_core`, the one
    with the least slack for :func:`check_core_structural`.
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


def shapley_closed_form(game: GameInstance) -> ShapleyResult:
    """O(N) Shapley payoffs exploiting the owner's veto structure.

    A provider contributes its standalone profit m_i exactly when the owner
    arrives before it, which happens in half of all orderings, so it gets
    m_i / 2; the owner collects the remaining half of the total.
    """
    payoffs = {sp.id: m / 2.0 for sp, m in zip(game.sps, game.profits)}
    payoffs[NO] = game.v_grand / 2.0
    return ShapleyResult(payoffs=payoffs)


def check_core_structural(game: GameInstance, payoffs: PayoffVector) -> CoreCheck:
    """Core membership of a payoff vector, read off the standalone profits in O(n).

    With v(S) = [NO in S] * sum of the m_i in S, the least slack x(S) - v(S)
    over coalitions without the owner is the sum of the negative x_i, and
    over coalitions with it x_NO plus the sum of the negative x_i - m_i; each
    minimiser takes exactly the providers whose term is negative. Both sums
    are rounded once (``fsum``), and both tests allow the :func:`_noise` that
    :func:`~coinvest.oracle.check_core` allows, so the verdicts agree. On
    failure the coalition named is the one with the least slack.
    """
    x = _payoff_floats(game.players, payoffs)
    grand = game.v_grand
    noise = _noise(grand)
    without = [sp.id for sp in game.sps if x[sp.id] < 0.0]
    short = [(sp.id, m) for sp, m in zip(game.sps, game.profits) if x[sp.id] < m]
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
    supermodular iff every m_j >= -noise, with the :func:`_noise` of
    :func:`~coinvest.oracle.check_supermodularity`; since every standalone
    profit is floored at 0, it always is. A counterexample is the one the brute-force test
    finds first: the owner adds less to {j} than to the empty coalition.
    """
    noise = _noise(game.v_grand)
    for sp, m in zip(game.sps, game.profits):
        if m < -noise:
            return SupermodularityReport(
                holds=False, counterexample=(NO, frozenset(), frozenset([sp.id]))
            )
    return SupermodularityReport(holds=True, counterexample=None)


def classify_players_structural(game: GameInstance) -> dict[str, PlayerFlags]:
    """Veto and null flags of a coinvestment game, read off the standalone profits in O(n).

    The owner is always veto, and null iff every m_i is 0. A provider is null
    iff its m_i is 0, and veto iff every other provider's is. Profits are
    compared with exact 0, as :func:`~coinvest.oracle.classify_players`
    compares values.
    """
    nonzero = sum(m != 0.0 for m in game.profits)
    flags = {
        sp.id: PlayerFlags(veto=nonzero - (m != 0.0) == 0, null=m == 0.0)
        for sp, m in zip(game.sps, game.profits)
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
    grand = game.v_grand
    total = math.fsum(payoff.values())
    if abs(total - grand) > SETTLE_TOL * max(1.0, abs(grand)):
        raise ValueError(
            f"payoffs sum to {total!r} but the grand coalition is worth {grand!r}"
        )
    alloc = grand_allocation(game)
    # a sweep's providers often share beta, load profile and h: sum each such slot list once
    summed, revenue = {}, {}
    for sp in game.sps:
        key = (sp.beta, id(sp.load), alloc.h[sp.id])
        if key not in summed:
            summed[key] = provider_revenue(sp, game.market, alloc.h[sp.id])
        revenue[sp.id] = summed[key]
    revenue[NO] = 0.0
    payment = {p: revenue[p] - payoff[p] for p in players}
    return Settlement(revenue=revenue, payment=payment, payoff=payoff, allocation=alloc)
