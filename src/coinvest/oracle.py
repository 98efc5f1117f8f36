"""The exact oracle: every coalition's value, and the brute-force routes and
checks that read them.

:func:`coalition_table` sums the providers' standalone profits over all 2^n
coalitions of a game (at most :data:`~coinvest.game.MAX_ENUMERATION_PLAYERS`
players), bit-identically to :func:`~coinvest.game.coalition_value`, in exact
integers; an ndarray's float pass falls back to them unless it stays exact.
Its caller builds the table once and passes it to every route and check it
runs: enumeration of the Shapley value, core membership, supermodularity and
player classification, each a brute force over the table. ``coinvest verify``
holds them against the O(n) structural checks of :mod:`coinvest.shapley`;
``run`` never loads this module, nor does a ``verify`` wholly past the bound.

Each route and check has one body, written over a few array primitives
(``_split``, ``_difference``, ``_first_below``, ``_subset_sums`` and the
like). Each primitive has a list form, for a table whose values are a
tuple, and an ndarray form, which imports numpy; both do the same float
operations in the same order, so the verdicts and counterexamples agree.
Only enumeration sums differently: with ``fsum`` on lists. So a process that
reads no ndarray table never loads numpy. Brute-force supermodularity and
enumeration are one pass, :func:`supermodularity_and_enumeration`: it finds
a veto player, whose avoiding half of the table is all zeros, and forms each
other player's gains over the other half once, for its payoff and for a bound
that spares the pair scan, which :func:`shapley_enumeration` never runs.
"""

from __future__ import annotations

import math
from itertools import chain, compress, cycle
from operator import mul, sub

from .game import (
    MAX_ENUMERATION_PLAYERS,
    Coalition,
    CoalitionTable,
    GameInstance,
    PayoffVector,
    _payoff_floats,
)
from .shapley import (
    STABILITY_TOL,
    CoreCheck,
    PlayerFlags,
    ShapleyResult,
    SupermodularityReport,
)


def coalition_table(game: GameInstance, array: bool = False) -> CoalitionTable:
    """Every coalition's value in ``game``. The owner is the last player: entries with its
    (high) bit set are the providers' profit subset sums, bit-identical to
    :func:`coalition_value`, and the rest are 0.

    By default the values are a tuple of floats, summed in Python integers by
    :func:`_exact_subset_sums`, which needs no numpy. With ``array``, they are a
    read-only ndarray, summed in numpy passes by :func:`_fsum_subset_sums`, which
    imports numpy but costs less per entry; pass it for large tables. Both builds
    give the same floats.
    """
    players = game.players
    if len(players) > MAX_ENUMERATION_PLAYERS:
        raise ValueError(
            f"{len(players)} players exceeds the enumeration bound of {MAX_ENUMERATION_PLAYERS}; "
            "only shapley_sampling of a GameInstance runs beyond it"
        )
    if not array:
        sums = _exact_subset_sums(game.profits)
        return CoalitionTable(players, (0.0,) * len(sums) + tuple(sums))
    import numpy as np

    sums = _fsum_subset_sums(game.profits)
    values = np.zeros(2 * sums.size)
    values[sums.size:] = sums
    values.flags.writeable = False
    return CoalitionTable(players, values)


def _exact_subset_sums(x) -> list[float]:
    """``math.fsum`` of the finite ``x`` over every coalition, indexed by bitmask,
    without numpy.

    Every finite float is an integer multiple of 2^-1074, and the x_k are all
    multiples of ``1 / scale``, the largest of their power-of-two denominators.
    So the sums are taken exactly in integers by :func:`_subset_sums`, and each
    is divided by ``scale`` once. That division is correctly rounded, so each
    entry is the correctly rounded exact sum, which is what ``fsum`` returns.
    """
    ratios = [float(v).as_integer_ratio() for v in x]
    scale = max((q for _, q in ratios), default=1)
    return [s / scale for s in _subset_sums([p * (scale // q) for p, q in ratios], ())]


def _two_sum(a, b, s, spare, err):
    """``(s, err)`` with ``s = fl(a + b)`` and ``s + err == a + b`` exactly (Knuth's TwoSum),
    written through ``out=`` into the arrays ``s``, ``spare`` and ``err`` (which may be ``b``)."""
    import numpy as np

    s = np.add(a, b, out=s)
    bb = np.subtract(s, a, out=spare)
    err = np.subtract(b, bb, out=err)
    # a - (s - bb), overwriting bb once it is no longer needed
    t = np.subtract(s, bb, out=spare)
    t = np.subtract(a, t, out=spare)
    return s, np.add(t, err, out=err)


def _fsum_subset_sums(x) -> np.ndarray:
    """``math.fsum`` of the finite ``x`` over every coalition, indexed by bitmask.

    Built by doubling (``t <- [t, t + x_k]``, so bit k is term k), each sum
    carried as ``hi + lo``: TwoSum adds the term to ``hi`` and its rounding
    error to ``lo``. If no ``lo`` addition loses bits, each ``hi + lo`` is the
    exact sum, and rounding it once gives what ``fsum`` returns. Otherwise (on
    profits spanning more than about 2^50), or if an entry is not finite, the
    sums are :func:`_exact_subset_sums`'s, the one exact algorithm both kinds
    rest on (Shewchuk 1997, "Adaptive precision floating-point arithmetic").

    Each doubling step writes its TwoSums into the upper halves through two
    reused scratch rows, half as long as ``hi``, so no temporary outgrows it.
    """
    import numpy as np

    x = [float(v) for v in x]
    size = 1 << len(x)
    hi, lo = np.zeros(size), np.zeros(size)
    scratch = np.empty((2, size // 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, term in enumerate(x):
            h = 1 << k
            spare, err = scratch[:, :h]
            _two_sum(hi[:h], term, hi[h:2 * h], spare, err)
            _, lost = _two_sum(lo[:h], err, lo[h:2 * h], spare, err)
            if lost.any():
                break
        else:
            if np.isfinite(np.add(hi, lo, out=hi)).all():
                return hi
    return np.array(_exact_subset_sums(x))


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


def _noise(values) -> float:
    """``STABILITY_TOL`` relative to the grand value, the table's last entry."""
    return STABILITY_TOL * max(1.0, abs(float(values[-1])))


def _certified_enumeration(table: CoalitionTable) -> tuple[bool, ShapleyResult]:
    """The exact Shapley payoffs, and whether their gains prove supermodularity.

    Enumeration sums ``|S|! * (n-|S|-1)! / n!`` times each player's marginal
    over every S avoiding it. Where k is veto (:func:`_veto_half`), every
    other player j's marginal over the S avoiding k is 0 - 0, so its sum runs
    over its gains g_j = v(T+k+j) - v(T+k) alone, with the weights of |T| + 1.

    The same g_j, with least lo_j and greatest hi_j, prove supermodularity in
    O(n 2^n). A second difference of :func:`_pair_scan` over S, i and j is
    0 - 0 if S, i and j all avoid k; an entry of g_j (or g_i) if i or j is k,
    as x - 0 == x; otherwise fl(a - b) with a and b entries of g_j, so at
    least fl(lo_j - hi_j), rounding being monotone. So the game holds if every
    lo_j and fl(lo_j - hi_j) is at least ``-noise`` (:func:`_noise`). A NaN
    entry, which the scan never flags, makes a bound NaN, which proves
    nothing, or is skipped by ``min`` and ``max``.
    """
    players, values = table
    n = len(players)
    noise = _noise(values)
    fact = [math.factorial(k) for k in range(n + 1)]
    weight = [fact[s] * fact[n - s - 1] / fact[n] for s in range(n)]
    # raveled, the coalitions avoiding any one player list the other players'
    # subsets in bitmask order, so one array of weights serves every player;
    # its upper half, weight[|T| + 1], serves the coalitions T + k
    coef = _take(weight, _subset_sums([1] * (n - 1), values))
    upper = coef[len(coef) // 2:]
    k, half = _veto_half(table)
    certified = k is not None
    payoffs = {}
    for i, pid in enumerate(players):
        if k is None or i == k:
            without, joined = _split(values, i)
            payoffs[pid] = _weighted_sum(coef, _difference(joined, without))
            continue
        without, joined = _split(half, i - (i > k))
        gain = _difference(joined, without)
        if certified:  # bounded before _weighted_sum overwrites an ndarray gain
            lo, hi = _bounds(gain)
            certified = lo >= -noise and lo - hi >= -noise
        payoffs[pid] = _weighted_sum(upper, gain)
    return certified, ShapleyResult(payoffs)


def supermodularity_and_enumeration(
    table: CoalitionTable,
) -> tuple[SupermodularityReport, ShapleyResult]:
    """Brute-force supermodularity and the exact Shapley payoffs in one pass: the pair
    scan decides what the certificate leaves open, so verdicts are the scan's."""
    certified, exact = _certified_enumeration(table)
    if certified:
        return SupermodularityReport(True, None), exact
    return _pair_scan(table, _noise(table.values)), exact


def shapley_enumeration(table: CoalitionTable) -> ShapleyResult:
    """Exact Shapley payoffs (:func:`_certified_enumeration`), with no pair scan."""
    return _certified_enumeration(table)[1]


def check_core(table: CoalitionTable, payoffs: PayoffVector) -> CoreCheck:
    """Exhaustively test whether a payoff vector sits in the core.

    Every coalition must collectively receive at least its own value and the
    payoffs must exactly exhaust the grand value; both tests allow a float
    noise of ``STABILITY_TOL`` relative to the grand value.
    """
    players, values = table
    x = list(_payoff_floats(players, payoffs).values())
    grand = float(values[-1])
    noise = _noise(values)
    gap = _difference(_subset_sums(x, values), values, in_place=True)
    blocked = _first_below(gap, -noise)
    return CoreCheck(
        in_core=blocked is None and abs(math.fsum(x) - grand) <= noise,
        violating_coalition=None if blocked is None else _mask_coalition(blocked, players),
    )


def check_supermodularity(table: CoalitionTable) -> SupermodularityReport:
    """Whether marginal contributions grow with the coalition, up to a noise
    of ``STABILITY_TOL`` relative to the grand value, as in :func:`check_core`
    (:func:`supermodularity_and_enumeration`)."""
    return supermodularity_and_enumeration(table)[0]


def _pair_scan(table: CoalitionTable, noise: float) -> SupermodularityReport:
    """The first S, i, j with ``v(S+i) - v(S) > v(S+i+j) - v(S+j) + noise``,
    j ascending, then i < j, then S by bitmask: the local condition, equivalent
    to the nested one over all T subseteq S (Shapley 1971, "Cores of convex
    games"). O(n^2 2^n); no CLI path reaches it unless the certificate of
    :func:`supermodularity_and_enumeration` fails, as it never does on a
    coinvestment game.
    """
    players, values = table
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
