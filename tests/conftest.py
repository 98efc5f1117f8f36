"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the production shortcuts: Shapley values are
re-derived by averaging over every arrival order, single-provider optima by
dense grid search or golden-section search over the raw objective, the core,
supermodularity and classification checks by plain loops over coalitions
(supermodularity also pair by pair, in the brute-force check's order),
sampled payoffs by walking each arrival order through the coalition
table or by exact rational arithmetic over the same arrival orders, their
standard errors by enumerating every set of players ahead of each player,
and the synthesized load shape by numpy's vectorized sine.

:class:`TabularGame` gives the exact routes and checks hand-built games,
including ones the coinvestment model can never produce (e.g. non-convex
fixtures): its ``table()`` is a :class:`~coinvest.game.CoalitionTable`, the
type ``coalition_table`` makes of a ``GameInstance``, of either kind (a
read-only ndarray or a tuple, as ``TABLE_KINDS`` names them), and its
``value(coalition)`` serves the loop oracles.

:func:`invoke_cli` runs a ``coinvest`` command line in-process and returns
its exit code and output; :func:`fresh_interpreter` runs one in a new process.
"""

import importlib.util
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

import coinvest
from coinvest import (
    GameInstance,
    LoadProfile,
    MarketParams,
    ServiceProvider,
    amortized_unit_price,
    coalition_table,
    coalition_value,
    scale_load,
    synth_load,
)
from coinvest.cli import main
from coinvest.game import CoalitionTable

# 17 players: one instance is 17 * 2^17 ~ 2.2*10^6 units of exact work,
# past verify's budget for tuple tables, so verify reads ndarrays and loads numpy
OVER_BUDGET = json.dumps({
    "scenario": "custom",
    "samples": 200,
    "custom_sps": [
        {"id": f"SP{k:02d}", "beta": 2e-6, "daily_total": 5e5 + 5e4 * k} for k in range(16)
    ],
})

# the 17-player game bench/workloads.py's custom_game(1348, 17, 5000) builds,
# pinned by its seed, the first from 60 up whose verify fails: SP14's sampled
# payoff sits 4.1 standard errors from the exact one by chance, so verify
# FAILs the oracle triangle
OFF_BY_CHANCE = json.dumps({
    "scenario": "custom",
    "seed": 1348,
    "samples": 5000,
    "custom_sps": [
        {"id": "SP01", "beta": 1.342141463051033e-06, "daily_total": 1614010.2934306879},
        {"id": "SP02", "beta": 2.5346865585661956e-06, "daily_total": 1974179.3880365603},
        {"id": "SP03", "beta": 2.075434187906432e-06, "daily_total": 503398.550356291},
        {"id": "SP04", "beta": 1.531386425676052e-06, "daily_total": 849300.7587794237},
        {"id": "SP05", "beta": 1.1389293085181364e-06, "daily_total": 1368260.1622956314},
        {"id": "SP06", "beta": 1.7412852444619703e-06, "daily_total": 15166.092856971076},
        {"id": "SP07", "beta": 2.321572269096224e-06, "daily_total": 1053342.1509875408},
        {"id": "SP08", "beta": 2.3641076055967655e-06, "daily_total": 715198.4048901765},
        {"id": "SP09", "beta": 7.375383487432858e-07, "daily_total": 1166765.893529469},
        {"id": "SP10", "beta": 2.7316022551903622e-06, "daily_total": 791804.8494019834},
        {"id": "SP11", "beta": 2.414297020528435e-06, "daily_total": 1578775.9359869095},
        {"id": "SP12", "beta": 1.9943480690434493e-06, "daily_total": 1791498.6173734006},
        {"id": "SP13", "beta": 1.4414949822076462e-06, "daily_total": 531971.9225089906},
        {"id": "SP14", "beta": 7.203934979106557e-07, "daily_total": 931142.5393520064},
        {"id": "SP15", "beta": 2.3918745122570993e-06, "daily_total": 584418.8494809372},
        {"id": "SP16", "beta": 1.392238770082232e-06, "daily_total": 966393.0505572665},
    ],
})

#: The two kinds of coalition table, by the ``array`` argument of
#: ``coalition_table`` that builds each.
TABLE_KINDS = {"ndarray": True, "tuple": False}

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

    def table(self, array=True):
        """Every coalition's value in bitmask order, built by a plain loop: a
        read-only ndarray if ``array``, a tuple of floats otherwise."""
        values = tuple(self.value(c) for c in coalitions_by_mask(self.players))
        if array:
            values = np.array(values)
            values.flags.writeable = False
        return CoalitionTable(self.players, values)


def worth(game, coalition):
    """v(coalition): a :class:`TabularGame`'s entry, a ``GameInstance``'s
    :func:`~coinvest.game.coalition_value`."""
    if isinstance(game, TabularGame):
        return game.value(coalition)
    return coalition_value(game, coalition)


def marginal_contribution(game, player, coalition):
    """Value the player adds on joining: v(S + player) - v(S)."""
    members = frozenset(coalition)
    if player in members:
        raise ValueError(f"player {player!r} is already in the coalition")
    return float(worth(game, members | {player}) - worth(game, members))


def bloated_game(n_players=21):
    """A coinvestment instance with one player more than the enumeration bound.

    Building it is cheap; only reading its 2^n coalition table is refused.
    """
    market = MarketParams()
    load = LoadProfile([1e6 / market.T] * market.T)
    sps = tuple(ServiceProvider(f"SP{k}", 1e-6, load) for k in range(n_players - 1))
    return GameInstance(market, sps)


# the sampler's stream: orders come in blocks of 2^16, and in block q player k
# draws from its own MT19937 generator, seeded with (k << 96) | (q << 64) | seed
_STREAM_BLOCK = 1 << 16
_KEY_BITS = 64


def mt19937_keys(seed, samples, n):
    """The (samples, n) uint64 arrival keys: the first 64 bits of each
    player's arrival time in each order ``shapley_sampling`` draws.

    Player k's b-th ``getrandbits(c)`` in a block of c orders holds, in bit
    i, bit b of its time in the block's order i, bit 0 the most significant.
    All 64 planes are drawn, so two keys tie only if two times agree in 64
    bits (probability 2^-64 per pair), which no test here meets.
    """
    keys = np.zeros((n, samples), dtype=np.uint64)
    for q, start in enumerate(range(0, samples, _STREAM_BLOCK)):
        c = min(_STREAM_BLOCK, samples - start)
        for k in range(n):
            stream = random.Random(k << 96 | q << 64 | seed)
            key = keys[k, start:start + c]
            for b in range(_KEY_BITS):
                plane = stream.getrandbits(c).to_bytes((c + 7) // 8, "little")
                bits = np.unpackbits(np.frombuffer(plane, dtype=np.uint8), count=c, bitorder="little")
                key |= bits.astype(np.uint64) << np.uint64(_KEY_BITS - 1 - b)
    return keys.T


def sampling_by_table(game, samples, seed):
    """Reference sampler: the payoffs, from every arrival order at once.

    Draws the :func:`mt19937_keys` arrival keys of the orders the production
    sampler draws, sorts each row into an arrival order and reads every player's
    marginal contribution off the coalition table.
    """
    players = tuple(game.players)
    keys = mt19937_keys(seed, samples, len(players))
    table = coalition_table(game, array=True).values
    order = np.argsort(keys, axis=1)
    masks = np.bitwise_or.accumulate(np.left_shift(1, order), axis=1)
    gains = np.diff(table[masks], axis=1, prepend=table[0])
    marginals = np.empty(keys.shape)
    np.put_along_axis(marginals, order, gains, axis=1)
    return dict(zip(players, marginals.mean(axis=0).tolist()))


def sampling_exact_stderr(game, samples):
    """Exact standard error of each player's mean marginal contribution over
    ``samples`` independent, uniformly random arrival orders.

    In one order a player adds v(T + i) - v(T), where T, the set of players
    ahead of it, is any set of the others with probability
    |T|!(n-1-|T|)!/n!. Every such T is enumerated over the coalition table;
    the variance is the weighted mean squared deviation from the weighted
    mean, and the estimate's is that over ``samples``.
    """
    players = tuple(game.players)
    n = len(players)
    values = coalition_table(game, array=True).values
    weight = np.array([
        math.factorial(k) * math.factorial(n - 1 - k) / math.factorial(n) for k in range(n)
    ])
    masks = np.arange(1 << n)
    size = np.array([bin(mask).count("1") for mask in range(1 << n)])
    stderr = {}
    for i, pid in enumerate(players):
        ahead = masks[masks >> i & 1 == 0]
        gain = values[ahead | 1 << i] - values[ahead]
        w = weight[size[ahead]]
        mean = math.fsum(w * gain)
        var = math.fsum(w * (gain - mean) ** 2)
        stderr[pid] = math.sqrt(var / samples)
    return stderr


def sampling_exact_mean(game, samples, seed):
    """Exact rational mean of every player's marginal contribution over the
    arrival orders that ``shapley_sampling`` draws for ``samples`` and ``seed``.

    The keys are :func:`mt19937_keys`, all 64 planes of them, so the orders
    are found without the production sampler's plane-by-plane comparison. A
    provider's mean is m_i times the fraction of orders in
    which the owner arrived first; the owner's is the average of the summed
    profits of the providers before it, grouped by the set of providers that
    came first.
    """
    players = tuple(game.players)
    keys = mt19937_keys(seed, samples, len(players))
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


def load_bench_module(monkeypatch, stem):
    """The benchmark's ``bench/<stem>.py``, such as its workloads or its
    output gate, loaded from the file for the length of a test."""
    # each imports only the standard library; the workloads' dataclass needs
    # the module registered while it loads, and bench/ gets no bytecode
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "bench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


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


def numpy_shape(a0, components, T):
    """``a0 + sum_k a_k * sin(2*k*pi*(t - t_k)/T)`` over slots t = 1..T,
    evaluated with numpy arrays, harmonic by harmonic."""
    t = np.arange(1, T + 1, dtype=float)
    out = np.full(T, float(a0))
    for k, (amp, offset) in enumerate(components, start=1):
        out += amp * np.sin(2.0 * k * math.pi * (t - offset) / T)
    return out


def numpy_synth_load(T):
    """Reference for ``synth_load``: the built-in curve, through numpy."""
    return LoadProfile(tuple(numpy_shape(1.0, ((0.45, 66.0), (0.15, 30.0)), T).tolist()))


def random_load(rng, market, total):
    """A random sinusoidal daily shape, clipped at zero, rescaled to the requested total."""
    shape = numpy_shape(
        float(rng.uniform(0.5, 2.0)),
        (
            (float(rng.uniform(0.0, 0.6)), float(rng.uniform(0.0, market.T))),
            (float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.0, market.T))),
        ),
        market.T,
    )
    base = LoadProfile(tuple(np.maximum(shape, 0.0).tolist()))
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
    base = synth_load(MarketParams().T)
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
    grand = worth(game, frozenset(players))
    noise = tol * max(1.0, abs(grand))
    for coalition in coalitions_by_mask(players):
        paid = 0.0
        for p in players:
            if p in coalition:
                paid += payoffs[p]
        if paid - worth(game, coalition) < -noise:
            return False, coalition
    return abs(math.fsum(payoffs[p] for p in players) - grand) <= noise, None


def supermodularity_scan(game, tol=1e-9):
    """Nested-pair reference: does ``v(T+i) - v(T) <= v(S+i) - v(S) + tol``
    hold for every player i and every T subseteq S avoiding i?"""
    players = tuple(game.players)
    for i in players:
        for larger in coalitions_by_mask(tuple(p for p in players if p != i)):
            gain = worth(game, larger | {i}) - worth(game, larger)
            for smaller in coalitions_by_mask(tuple(larger)):
                if worth(game, smaller | {i}) - worth(game, smaller) > gain + tol:
                    return False
    return True


def pair_scan(game, tol=1e-9):
    """Loop reference for ``check_supermodularity``: its first counterexample,
    ``(player j, S, S + i)``, or None if there is none.

    Visits j in player order, then each i before j, then each S avoiding both
    in ascending bitmask order, and forms the second difference
    ``(v(S+i+j) - v(S+i)) - (v(S+j) - v(S))`` in that order; the slack allowed
    is ``tol`` relative to the grand value.
    """
    players = tuple(game.players)
    noise = tol * max(1.0, abs(worth(game, frozenset(players))))
    for j, pid in enumerate(players):
        for i, other in enumerate(players[:j]):
            for smaller in coalitions_by_mask(tuple(p for p in players if p not in (pid, other))):
                larger = smaller | {other}
                after = worth(game, larger | {pid}) - worth(game, larger)
                before = worth(game, smaller | {pid}) - worth(game, smaller)
                if after - before < -noise:
                    return pid, smaller, larger
    return None


def classification_scan(game, tol=0.0):
    """Loop reference for veto/null flags: {player: (veto, null)}."""
    players = tuple(game.players)
    flags = {}
    for i in players:
        avoiding = coalitions_by_mask(tuple(p for p in players if p != i))
        veto = all(abs(worth(game, s)) <= tol for s in avoiding)
        null = all(abs(worth(game, s | {i}) - worth(game, s)) <= tol for s in avoiding)
        flags[i] = (veto, null)
    return flags


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str
    """stdout and stderr together, in the order they were written"""
    exception: SystemExit | None
    """the ``SystemExit`` the command raised, unless it exited 0"""


class _Transcribed(io.StringIO):
    """A captured stream that also appends what it is given to ``transcript``."""

    def __init__(self, transcript: list):
        super().__init__()
        self.transcript = transcript

    def write(self, text):
        self.transcript.append(text)
        return super().write(text)


def invoke_cli(args) -> CliResult:
    """Run ``coinvest ARGS`` in-process, with stdout and stderr captured.

    The exit code is 0 when ``main`` returns and the code of the
    ``SystemExit`` it raises otherwise. Any other exception propagates.
    """
    transcript = []
    out, err = _Transcribed(transcript), _Transcribed(transcript)
    exception = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args), prog_name="coinvest")
            exit_code = 0
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
            exception = exc if exit_code else None
    return CliResult(exit_code, out.getvalue(), err.getvalue(), "".join(transcript), exception)


def fresh_interpreter(*args, env=None, cwd=None, umask=-1):
    """Run ``python ARGS`` in a new process, in ``env`` (default: this
    process's environment) and in ``cwd``, under ``umask`` if it is not -1;
    returns the completed process."""
    env = os.environ if env is None else env
    # the child imports the same package as this suite, installed or not
    src = str(Path(coinvest.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": path},
        cwd=cwd,
        umask=umask,
    )


@contextmanager
def isolated_filesystem():
    """Run the body in a new, empty working directory, removed afterwards."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield tmp
        finally:
            os.chdir(cwd)


@pytest.fixture
def market():
    return MarketParams()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
