"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the production shortcuts: Shapley values are
re-derived by averaging over every arrival order, single-provider optima by
dense grid search or golden-section search over the raw objective, the core,
supermodularity and classification checks by plain loops over coalitions,
and sampled payoffs by walking each arrival order through the coalition
table or by exact rational arithmetic over the same arrival orders.

:class:`TabularGame` gives the exact routes and checks hand-built games,
including ones the coinvestment model can never produce (e.g. non-convex
fixtures): like a ``GameInstance`` it has ``players`` and
``coalition_table()``, plus ``value(coalition)`` for the loop oracles.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from coinvest import (
    GameInstance,
    LoadProfile,
    MarketParams,
    ServiceProvider,
    SinusoidalLoadSpec,
    amortized_unit_price,
    scale_load,
    synth_load,
)

# Property tests draw the same examples on every run, and a slow example
# (a 2^n table) is not a failure.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


class TabularGame:
    """Characteristic function given explicitly as a table.

    Coalitions missing from ``values`` take ``default``; pass ``default=None``
    to require a complete table.
    """

    def __init__(self, players, values, default=0.0):
        self.players = tuple(players)
        known = frozenset(self.players)
        if len(known) != len(self.players):
            raise ValueError(f"player ids must be unique, got {self.players!r}")
        self._values = {}
        for coal, val in values.items():
            members = frozenset(coal)
            if not members <= known:
                raise ValueError(f"table entry {sorted(members)!r} references unknown players")
            self._values[members] = float(val)
        self._default = None if default is None else float(default)

    def value(self, coalition):
        members = frozenset(coalition)
        if not members <= frozenset(self.players):
            raise ValueError(f"coalition references unknown players: {sorted(members)!r}")
        got = self._values.get(members)
        if got is not None:
            return got
        if self._default is None:
            raise KeyError(f"no value for coalition {sorted(members)!r}")
        return self._default

    def coalition_table(self):
        """Every coalition's value in bitmask order, built once by a plain loop."""
        table = self.__dict__.get("_coalition_table")
        if table is None:
            table = np.array([self.value(c) for c in coalitions_by_mask(self.players)])
            table.flags.writeable = False
            self._coalition_table = table
        return table


def marginal_contribution(game, player, coalition):
    """Value the player adds on joining: v(S + player) - v(S)."""
    members = frozenset(coalition)
    if player in members:
        raise ValueError(f"player {player!r} is already in the coalition")
    return float(game.value(members | {player}) - game.value(members))


def bloated_game(n_players=21):
    """A coinvestment instance with one player more than the enumeration bound.

    Building it is cheap; only reading its 2^n coalition table is refused.
    """
    market = MarketParams()
    load = LoadProfile([1e6 / market.T] * market.T)
    sps = tuple(ServiceProvider(f"SP{k}", 1e-6, load) for k in range(n_players - 1))
    return GameInstance(market, sps)


def sampling_by_table(game, samples, seed):
    """Reference sampler: (payoffs, stderr) from one block of arrival orders.

    Draws ``rng.random((samples, n))`` arrival keys, as the production
    sampler's first block does, sorts each row into an arrival order and
    reads every player's marginal contribution off the coalition table.
    """
    players = tuple(game.players)
    keys = np.random.default_rng(seed).random((samples, len(players)))
    table = game.coalition_table()
    order = np.argsort(keys, axis=1)
    masks = np.bitwise_or.accumulate(np.left_shift(1, order), axis=1)
    gains = np.diff(table[masks], axis=1, prepend=table[0])
    marginals = np.empty_like(keys)
    np.put_along_axis(marginals, order, gains, axis=1)
    mean = marginals.mean(axis=0)
    se = marginals.std(axis=0, ddof=1) / math.sqrt(samples)
    return dict(zip(players, mean.tolist())), dict(zip(players, se.tolist()))


def sampling_exact_mean(game, samples, seed):
    """Exact rational mean of every player's marginal contribution over the
    arrival orders that ``shapley_sampling`` draws for ``samples`` and ``seed``.

    The keys are ``rng.random((samples, n))``: the production sampler draws
    them in blocks of rows, which yields the same numbers in the same order.
    A provider's mean is m_i times the fraction of orders in which the owner
    arrived first; the owner's is the average of the summed profits of the
    providers before it, grouped by the set of providers that came first.
    """
    players = tuple(game.players)
    keys = np.random.default_rng(seed).random((samples, len(players)))
    optima = game.standalone_optima()
    profit = [Fraction(optima[sp.id].value) for sp in game.sps]
    before = keys[:, :-1] <= keys[:, -1:]
    mean = {
        pid: int(np.count_nonzero(~before[:, i])) * profit[i] / samples
        for i, pid in enumerate(players[:-1])
    }
    sets, counts = np.unique(before @ (1 << np.arange(len(profit))), return_counts=True)
    owner = sum(
        int(count) * sum(m for i, m in enumerate(profit) if int(mask) >> i & 1)
        for mask, count in zip(sets, counts)
    )
    mean[players[-1]] = Fraction(owner) / samples
    return mean


def shapley_by_orderings(players, value_fn):
    """Average marginal contribution over every arrival order.

    Exponential-time reference implementation, independent of the subset-weight
    formula used in production.
    """
    players = tuple(players)
    totals = {p: 0.0 for p in players}
    count = 0
    for order in itertools.permutations(players):
        members = frozenset()
        prev = value_fn(members)
        for p in order:
            members = members | {p}
            cur = value_fn(members)
            totals[p] += cur - prev
            prev = cur
        count += 1
    return {p: totals[p] / count for p in players}


def grid_max_single(sp, market, steps=1_000_000):
    """Grid-search oracle for the one-provider profit maximization.

    Returns (argmax, max, step) over a uniform grid on the same bracket the
    numeric maximizer uses.
    """
    D, d, xi = market.D, market.d, market.xi
    daily_total = sp.load.total
    gain = D * xi * sp.beta * daily_total / d
    h_max = math.log(max(math.e, gain)) / xi + 10.0 / xi
    h = np.linspace(0.0, h_max, steps + 1)
    profit = D * sp.beta * daily_total * (1.0 - np.exp(-xi * h)) - d * h
    k = int(np.argmax(profit))
    return float(h[k]), float(profit[k]), float(h_max / steps)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_maximize(f, lo, hi, tol):
    """Midpoint of a golden-ratio bracket narrower than ``tol`` around the
    maximizer of a unimodal ``f`` on ``[lo, hi]``."""
    c = hi - (hi - lo) * _INV_GOLDEN
    d = lo + (hi - lo) * _INV_GOLDEN
    fc = f(c)
    fd = f(d)
    while hi - lo > tol:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * _INV_GOLDEN
            fd = f(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * _INV_GOLDEN
            fc = f(c)
    return 0.5 * (lo + hi)


def golden_max_single(sp, market):
    """Derivative-free oracle for the one-provider profit maximization.

    Returns (h, profit) found by golden-section search on the same bracket
    as :func:`grid_max_single`, with h = 0 when no positive profit exists.
    """
    D, d, xi = market.D, market.d, market.xi
    scale = D * sp.beta * sp.load.total

    def profit(h):
        return scale * (1.0 - math.exp(-xi * h)) - d * h

    gain = D * xi * sp.beta * sp.load.total / d
    h_max = math.log(max(math.e, gain)) / xi + 10.0 / xi
    # Width capped at 1e-6 absolute so tiny optima still resolve when h* is
    # orders of magnitude below the bracket end.
    h = golden_section_maximize(profit, 0.0, h_max, tol=min(1e-8 * h_max, 1e-6))
    if profit(h) <= 0.0:
        h = 0.0
    return h, max(profit(h), 0.0)


def grid_max_joint(game, steps=2000):
    """Joint brute force over the two providers' allocations.

    Evaluates the coalition objective on a 2-D grid of (h1, h2) and returns
    (best value, worst-case gap bound of the discretization).
    """
    assert len(game.sps) == 2
    m = game.market
    axes = []
    deltas = []
    for sp in game.sps:
        daily_total = sp.load.total
        gain = m.D * m.xi * sp.beta * daily_total / m.d
        h_max = math.log(max(math.e, gain)) / m.xi + 10.0 / m.xi
        h = np.linspace(0.0, h_max, steps + 1)
        axes.append(m.D * sp.beta * daily_total * (1.0 - np.exp(-m.xi * h)) - m.d * h)
        deltas.append(h_max / steps)
    joint = axes[0][:, None] + axes[1][None, :]
    # near each interior optimum the objective is flat: the grid misses at
    # most ~0.5 * d * xi * delta^2 per provider (curvature at the optimum)
    bound = sum(1.1 * 0.5 * m.d * m.xi * delta**2 for delta in deltas)
    return float(joint.max()), bound


def random_load(rng, market, total):
    """A random sinusoidal daily shape rescaled to the requested total."""
    spec = SinusoidalLoadSpec(
        a0=float(rng.uniform(0.5, 2.0)),
        components=(
            (float(rng.uniform(0.0, 0.6)), float(rng.uniform(0.0, market.T))),
            (float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.0, market.T))),
        ),
        T=market.T,
    )
    base = synth_load(spec)
    return scale_load(base, total / base.total)


def random_game(rng, n_sps=None, market=None):
    """A randomized instance: N providers with random rates and load shapes."""
    market = market or MarketParams()
    n = int(n_sps if n_sps is not None else rng.integers(1, 8))
    price = amortized_unit_price(market)
    sps = []
    for k in range(n):
        beta = float(rng.uniform(0.0, 5.0 * price))
        total = float(rng.uniform(5e4, 2e6))
        sps.append(ServiceProvider(f"SP{k + 1}", beta, random_load(rng, market, total)))
    return GameInstance(market=market, sps=tuple(sps))


def heterogeneous_game():
    """Seven providers with distinct rates and loads, one of them (SP03) idle."""
    base = synth_load(SinusoidalLoadSpec())
    sps = [
        ("SP01", 2.782702349577632e-06, 992293.889926531),
        ("SP02", 1.3779100235983496e-06, 1752513.8665936508),
        ("SP03", 1.7606817735646794e-06, 16225.109511770066),
        ("SP04", 1.839827684890239e-06, 541052.5446629863),
        ("SP05", 1.3486037168329595e-06, 884021.6108645312),
        ("SP06", 1.029460063623702e-06, 1146874.5558454327),
        ("SP07", 2.490016333643833e-06, 533344.8534827954),
    ]
    return GameInstance(
        MarketParams(),
        tuple(
            ServiceProvider(pid, beta, scale_load(base, total / base.total))
            for pid, beta, total in sps
        ),
    )


def veto_table_game(contributions):
    """A hand-built table game with the coinvestment structure.

    ``contributions`` maps provider ids to their standalone profits; any
    coalition containing "NO" is worth the sum of its providers' profits,
    anything without "NO" is worth zero.
    """
    players = tuple(contributions) + ("NO",)
    values = {}
    provider_ids = tuple(contributions)
    for r in range(len(provider_ids) + 1):
        for chosen in itertools.combinations(provider_ids, r):
            worth = math.fsum(contributions[p] for p in chosen)
            values[frozenset(chosen)] = 0.0
            values[frozenset(chosen) | {"NO"}] = worth
    return TabularGame(players, values, default=None)


def coalitions_by_mask(players):
    """Every coalition of ``players``, listed in ascending membership-bitmask order."""
    return [
        frozenset(p for i, p in enumerate(players) if mask >> i & 1)
        for mask in range(1 << len(players))
    ]


def core_scan(game, payoffs, tol=1e-9):
    """Loop reference for the core test: (in_core, first blocking coalition).

    Coalitions are visited in bitmask order and each one's payoff is summed in
    player order; the slack allowed is ``tol`` relative to the grand value.
    """
    players = tuple(game.players)
    grand = game.value(frozenset(players))
    noise = tol * max(1.0, abs(grand))
    for coalition in coalitions_by_mask(players):
        paid = 0.0
        for p in players:
            if p in coalition:
                paid += payoffs[p]
        if paid - game.value(coalition) < -noise:
            return False, coalition
    return abs(math.fsum(payoffs[p] for p in players) - grand) <= noise, None


def supermodularity_scan(game, tol=1e-9):
    """Nested-pair reference: does ``v(T+i) - v(T) <= v(S+i) - v(S) + tol``
    hold for every player i and every T subseteq S avoiding i?"""
    players = tuple(game.players)
    for i in players:
        for larger in coalitions_by_mask(tuple(p for p in players if p != i)):
            gain = game.value(larger | {i}) - game.value(larger)
            for smaller in coalitions_by_mask(tuple(larger)):
                if game.value(smaller | {i}) - game.value(smaller) > gain + tol:
                    return False
    return True


def classification_scan(game, tol=0.0):
    """Loop reference for veto/null flags: {player: (veto, null)}."""
    players = tuple(game.players)
    flags = {}
    for i in players:
        avoiding = coalitions_by_mask(tuple(p for p in players if p != i))
        veto = all(abs(game.value(s)) <= tol for s in avoiding)
        null = all(abs(game.value(s | {i}) - game.value(s)) <= tol for s in avoiding)
        flags[i] = (veto, null)
    return flags


@pytest.fixture
def market():
    return MarketParams()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
