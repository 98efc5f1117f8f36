"""Payoff division and stability analysis for transferable-utility games.

Three independent routes to the Shapley value (exact subset enumeration, a
closed form exploiting the owner's veto structure, and permutation sampling)
plus brute-force checkers for core membership and supermodularity, player
classification, and the up-front payment settlement.

The enumeration, sampling and checker functions only need an object with a
``players`` tuple and a ``value(coalition)`` method, so they also run on
hand-built characteristic functions (see :class:`TabularGame`); the closed
form and the settlement need a full :class:`~coinvest.game.GameInstance`.
Every route that reads coalition values is bounded by
``MAX_ENUMERATION_PLAYERS``; only sampling a ``GameInstance``, which needs
just the providers' standalone profits, runs beyond it.

The exact routes and checks read one 2^n table of coalition values per game.
A coinvestment instance's table is built by compensated doubling over the
providers' standalone profits in O(2^n) numpy passes, bit-identical to
:func:`~coinvest.game.coalition_value`; a generic game's table is built
through one ``value`` call per coalition. The checks' tolerances are the
``*_TOL`` and ``SAMPLING_SIGMAS`` constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

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

#: Every exact route and check enumerates all 2^n coalitions; capped here.
MAX_ENUMERATION_PLAYERS = 20

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

    ``violating_coalition`` is the first coalition found that could do better
    on its own; ``slack`` (optional) maps every coalition to payoff minus
    value, nonnegative everywhere iff rationality holds.
    """

    in_core: bool
    violating_coalition: Coalition | None = None
    slack: dict[Coalition, float] | None = None


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


class TabularGame:
    """Characteristic function given explicitly as a table.

    Lets the checkers and estimators run on hand-built games, including ones
    the coinvestment model can never produce (e.g. non-convex fixtures).
    Coalitions missing from the table take ``default``; pass ``default=None``
    to require a complete table.
    """

    def __init__(self, players: Iterable[str], values: dict, default: float | None = 0.0):
        self.players = tuple(players)
        known = frozenset(self.players)
        if len(known) != len(self.players):
            raise ValueError(f"player ids must be unique, got {self.players!r}")
        self._values: dict[Coalition, float] = {}
        for coal, val in values.items():
            members = frozenset(coal)
            if not members <= known:
                raise ValueError(f"table entry {sorted(members)!r} references unknown players")
            self._values[members] = float(val)
        self._default = None if default is None else float(default)

    def value(self, coalition: Iterable[str]) -> float:
        members = frozenset(coalition)
        if not members <= frozenset(self.players):
            raise ValueError(f"coalition references unknown players: {sorted(members)!r}")
        got = self._values.get(members)
        if got is not None:
            return got
        if self._default is None:
            raise KeyError(f"no value for coalition {sorted(members)!r}")
        return self._default


def _value_table(game) -> np.ndarray:
    """Value of every coalition, indexed by membership bitmask over ``game.players``.

    Built once per game object and cached on it read-only, so every exact
    route and check shares one table; the game must not change afterwards.
    A :class:`~coinvest.game.GameInstance` is built from its providers'
    standalone profits in O(2^n) numpy passes (see :func:`_fsum_subset_sums`),
    bit-identical to :func:`~coinvest.game.coalition_value`; any other game
    is built through one ``game.value`` call per coalition.
    """
    table = game.__dict__.get("_coalition_table")
    if table is None:
        players = tuple(game.players)
        n = len(players)
        if n > MAX_ENUMERATION_PLAYERS:
            raise ValueError(
                f"{n} players exceeds the enumeration bound of {MAX_ENUMERATION_PLAYERS}; "
                "only shapley_sampling of a GameInstance runs beyond it"
            )
        if isinstance(game, GameInstance):
            # the owner is the last player, so the high bit: zero without it
            optima = game.standalone_optima()
            sums = _fsum_subset_sums([optima[sp.id].value for sp in game.sps])
            table = np.concatenate([np.zeros(sums.size), sums])
        else:
            table = np.empty(1 << n)
            for mask in range(1 << n):
                table[mask] = game.value(_mask_coalition(mask, players))
        table.flags.writeable = False
        object.__setattr__(game, "_coalition_table", table)
    return table


def _two_sum(a, b):
    """``(s, err)`` with ``s = fl(a + b)`` and ``s + err == a + b`` exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fsum_subset_sums(x) -> np.ndarray:
    """``math.fsum`` of the finite ``x`` over every coalition, indexed by bitmask.

    Doubling as in :func:`_subset_sums`, but error-free: each sum is carried
    as ``hi + lo`` plus the rounding errors of the ``lo`` additions, whose
    magnitudes add up in ``slack`` (Ogita, Rump & Oishi 2005, "Accurate sum
    and dot product"). The rounded ``hi + lo`` is the correctly rounded exact
    sum, which is what ``fsum`` returns, when ``slack`` is zero, or when the
    exact sum, known to within ``slack``, lies strictly inside the rounding
    interval of ``hi + lo``. Every other entry, and any that is not finite,
    is recomputed with ``fsum``.
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


def marginal_contribution(game, player: str, coalition: Iterable[str]) -> float:
    """Value the player adds on joining: v(S + player) - v(S)."""
    members = frozenset(coalition)
    if player in members:
        raise ValueError(f"player {player!r} is already in the coalition")
    return float(game.value(members | {player}) - game.value(members))


def shapley_enumeration(game) -> ShapleyResult:
    """Exact Shapley payoffs by weighted subset enumeration.

    For each player, sums ``|S|! * (n-|S|-1)! / n!`` times its marginal
    contribution over every coalition S avoiding it.
    """
    players = tuple(game.players)
    n = len(players)
    table = _value_table(game)
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


def shapley_sampling(game, samples: int, seed: int = 0) -> ShapleyResult:
    """Monte Carlo Shapley estimate from random arrival orders.

    Averages each player's marginal contribution over ``samples`` uniformly
    random permutations (Castro, Gomez & Tejada 2009). Unbiased, deterministic
    for a fixed seed, and the estimates sum to the grand value up to rounding
    (each permutation telescopes). Reports one standard error per player.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    players = tuple(game.players)
    n = len(players)
    rng = np.random.default_rng(seed)
    sums = np.zeros(n)
    sqs = np.zeros(n)
    # at most 2^17 orders and 2^21 cells per block: memory stays bounded for any n
    rows = max(1, min(1 << 17, (1 << 21) // max(n, 1)))
    remaining = samples
    while remaining:
        block = min(remaining, rows)
        marginals, unit = _marginals(game, rng.random((block, n)))
        sums += marginals.sum(axis=0)
        sqs += (marginals * marginals).sum(axis=0)
        remaining -= block
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


def _marginals(game, keys: np.ndarray) -> tuple[np.ndarray, float]:
    """Every player's marginal contribution in a block of arrival orders.

    ``keys[r, k]`` is player k's arrival time in order r. Returns the
    ``(orders, players)`` marginals in units of the largest power of two not
    above the largest |value| read, so that their squares stay finite
    whenever they are; scaling by a power of two is exact.

    A :class:`~coinvest.game.GameInstance` needs no coalition values: a
    provider adds its standalone profit m_i when the owner arrived first and
    nothing otherwise, and the owner adds the m_j of the providers before it.
    Any other game reads its value table, so it is bounded like enumeration.
    """
    if isinstance(game, GameInstance):
        optima = game.standalone_optima()
        profit = np.array([optima[sp.id].value for sp in game.sps])
        unit = _unit(profit)
        profit /= unit
        after = keys[:, :-1] > keys[:, -1:]
        marginals = np.empty_like(keys)
        marginals[:, :-1] = after * profit
        marginals[:, -1] = (~after * profit).sum(axis=1)
        return marginals, unit
    table = _value_table(game)
    unit = _unit(table)
    order = np.argsort(keys, axis=1)
    masks = np.bitwise_or.accumulate(np.left_shift(1, order), axis=1)
    values = table[masks] / unit
    gains = np.diff(values, axis=1, prepend=table[0] / unit)
    marginals = np.empty_like(keys)
    np.put_along_axis(marginals, order, gains, axis=1)
    return marginals, unit


def _unit(values: np.ndarray) -> float:
    """The largest power of two not above the largest |value| (any, if all are 0)."""
    return math.ldexp(1.0, math.frexp(float(np.max(np.abs(values), initial=0.0)))[1] - 1)


def check_core(game, payoffs: PayoffVector, *, include_slack: bool = False,
               tol: float = STABILITY_TOL) -> CoreCheck:
    """Exhaustively test whether a payoff vector sits in the core.

    Every coalition must collectively receive at least its own value and the
    payoffs must exactly exhaust the grand value; both tests allow a float
    noise of ``tol`` relative to the grand value.
    """
    players = tuple(game.players)
    missing = [p for p in players if p not in payoffs]
    if missing:
        raise ValueError(f"payoff vector is missing players {missing!r}")
    x = [float(payoffs[p]) for p in players]
    table = _value_table(game)
    grand = float(table[-1])
    noise = tol * max(1.0, abs(grand))
    gap = _subset_sums(x) - table
    blocked = np.flatnonzero(gap < -noise)
    return CoreCheck(
        in_core=blocked.size == 0 and abs(math.fsum(x) - grand) <= noise,
        violating_coalition=_mask_coalition(int(blocked[0]), players) if blocked.size else None,
        slack=(
            {_mask_coalition(mask, players): float(g) for mask, g in enumerate(gap)}
            if include_slack else None
        ),
    )


def check_supermodularity(game, *, tol: float = STABILITY_TOL) -> SupermodularityReport:
    """Test that marginal contributions grow with the coalition.

    Checks the local condition ``v(S+i) - v(S) <= v(S+i+j) - v(S+j) + noise``
    for every pair of players i, j and every coalition S avoiding both, which
    is equivalent to the nested condition over all T subseteq S (Shapley 1971,
    "Cores of convex games"). The noise is ``tol`` relative to the grand
    value, as in :func:`check_core`.
    """
    players = tuple(game.players)
    table = _value_table(game)
    noise = tol * max(1.0, abs(float(table[-1])))
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


def classify_players(game, *, tol: float = 0.0) -> dict[str, PlayerFlags]:
    """Flag veto players and null players.

    A veto player makes every coalition without it worthless; a null player
    adds nothing to any coalition. In a degenerate all-zero game a player can
    be both.
    """
    table = _value_table(game)
    flags = {}
    for i, pid in enumerate(game.players):
        without, joined = _split(table, i)
        flags[pid] = PlayerFlags(
            veto=not np.any(np.abs(without) > tol),
            null=not np.any(np.abs(joined - without) > tol),
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
