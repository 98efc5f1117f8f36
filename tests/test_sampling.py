"""Permutation-sampling Shapley estimator: determinism, accuracy, edge cases."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinvest import (
    NO,
    GameInstance,
    LoadProfile,
    MarketParams,
    ServiceProvider,
    amortized_unit_price,
    check_core,
    check_core_structural,
    coalition_table,
    coalition_value,
    shapley_closed_form,
    shapley_enumeration,
    shapley_sampling,
)
from coinvest import sampling as sampling_mod

from conftest import (
    heterogeneous_game,
    mt19937_keys,
    random_game,
    sampling_by_table,
    sampling_exact_mean,
    sampling_exact_stderr,
)


def test_deterministic_for_fixed_seed(rng):
    game = random_game(rng, n_sps=3)
    first = shapley_sampling(game, 5000, seed=42)
    second = shapley_sampling(game, 5000, seed=42)
    assert first.payoffs == second.payoffs
    assert first.stderr == second.stderr
    assert first.sample_count == 5000


def test_seed_changes_the_estimate(rng):
    game = random_game(rng, n_sps=3)
    a = shapley_sampling(game, 2000, seed=1).payoffs
    b = shapley_sampling(game, 2000, seed=2).payoffs
    assert any(a[p] != b[p] for p in game.players)


def test_within_three_stderr_of_enumeration(rng):
    game = random_game(rng, n_sps=3)
    exact = shapley_enumeration(coalition_table(game)).payoffs
    sampled = shapley_sampling(game, 100_000, seed=7)
    for pid in game.players:
        margin = 3.0 * sampled.stderr[pid] + 1e-9 * max(1.0, abs(exact[pid]))
        assert abs(sampled.payoffs[pid] - exact[pid]) <= margin


def test_single_provider_converges_to_half_split(rng):
    game = random_game(rng, n_sps=1)
    closed = shapley_closed_form(game).payoffs
    sampled = shapley_sampling(game, 50_000, seed=3)
    for pid in game.players:
        margin = 3.0 * sampled.stderr[pid] + 1e-9 * max(1.0, abs(closed[pid]))
        assert abs(sampled.payoffs[pid] - closed[pid]) <= margin
    assert sampled.payoffs[NO] == pytest.approx(
        coalition_value(game, game.players) / 2.0, rel=0.05
    )


def test_estimates_sum_to_grand_value(rng):
    for samples in (1, 17, 4096):
        game = random_game(rng, n_sps=4)
        sampled = shapley_sampling(game, samples, seed=11)
        total = math.fsum(sampled.payoffs.values())
        grand = coalition_value(game, game.players)
        assert abs(total - grand) <= 1e-9 * max(1.0, grand)


def test_rejects_nonpositive_samples(rng):
    game = random_game(rng, n_sps=1)
    with pytest.raises(ValueError):
        shapley_sampling(game, 0)


def test_rejects_seeds_outside_64_bits(rng):
    game = random_game(rng, n_sps=2)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            shapley_sampling(game, 10, seed)
    assert shapley_sampling(game, 10, 2**64 - 1).sample_count == 10


# mt19937ar.c's published first outputs for init_by_array({0x123, 0x234,
# 0x345, 0x456}) (Matsumoto & Nishimura 1998). random.Random splits an int
# seed into 32-bit words from the least significant up, so this int is that
# key, packed as the sampler packs (player, block, seed)
_MT19937AR_KEY = 0x456 << 96 | 0x345 << 64 | 0x234 << 32 | 0x123
_MT19937AR = (1067595299, 955945823, 477289528)


def test_mt19937_stream_matches_the_published_one():
    stream = random.Random(_MT19937AR_KEY)
    assert [stream.getrandbits(32) for _ in range(3)] == list(_MT19937AR)
    # a wider plane holds the outputs from its least significant bit up
    plane = random.Random(_MT19937AR_KEY).getrandbits(96)
    assert plane == _MT19937AR[2] << 64 | _MT19937AR[1] << 32 | _MT19937AR[0]
    assert sampling_mod.Random is random.Random


def test_owner_trails_two_providers_one_time_in_three():
    # the owner comes before both of two providers in 1/3 of the orders, so
    # the indicators that it came first (each 1/2) have correlation
    # (1/3 - 1/4) / (1/4) = 1/3, and so do the two providers' counts; over
    # 1500 seeds the sample correlation has standard error
    # (1 - 1/9) / sqrt(1500) = 0.023
    counts = np.array([sampling_mod._order_counts(3, 1000, seed) for seed in range(1500)])
    correlation = np.corrcoef(counts.T)[0, 1]
    assert abs(correlation - 1 / 3) <= 0.1, correlation


def test_owner_z_scores_look_standard_normal_across_seeds():
    # 300 seeds of 2000 orders: the owner's z-score against the exact payoff
    # has standard error 0.058 on its mean, ~0.04 on its std and 0.058 on the
    # lag-1 correlation between consecutive seeds
    game = heterogeneous_game()
    exact = shapley_closed_form(game).payoffs[NO]
    z = []
    for seed in range(300):
        sampled = shapley_sampling(game, 2000, seed)
        z.append((sampled.payoffs[NO] - exact) / sampled.stderr[NO])
    z = np.array(z)
    assert abs(z.mean()) <= 0.2, z.mean()
    assert 0.85 <= z.std() <= 1.15, z.std()
    lag1 = np.corrcoef(z[:-1], z[1:])[0, 1]
    assert abs(lag1) <= 0.2, lag1


def _table_rounding(game, samples):
    """What the table's rounding may add to an exact standard error: each
    marginal the oracle reads is a difference of two table entries, each
    within half an ulp of v(N), so one of a provider whose m_i is ~1e-6 of
    v(N) is off by ~1e-11 of itself. n ulps bound that, as in the oracle
    triangle's margin."""
    grand = coalition_value(game, game.players)
    return len(game.players) * math.ulp(grand) / math.sqrt(samples)


# the stream's block: each block of orders draws its own streams
_BLOCK = 1 << 16

# a sample count inside one block, either side of a block's end, one a block
# exactly, and one that ends part-way into a third block
_BLOCK_COUNTS = (3000, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)


# 2 is the smallest game
@pytest.mark.parametrize("n_players", [3, 8, 12, 2, 7])
def test_instance_and_table_routes_agree(rng, n_players):
    # the same arrival keys walked through the coalition table
    # and the standard errors against the exact variance under uniform orders
    game = random_game(rng, n_sps=n_players - 1)
    for samples in _BLOCK_COUNTS:
        direct = shapley_sampling(game, samples, seed=13)
        payoffs = sampling_by_table(game, samples, seed=13)
        stderr = sampling_exact_stderr(game, samples)
        for pid in game.players:
            assert direct.payoffs[pid] == pytest.approx(payoffs[pid], rel=1e-9, abs=1e-9)
            assert direct.stderr[pid] == pytest.approx(
                stderr[pid], rel=1e-12, abs=_table_rounding(game, samples)
            )


@pytest.mark.parametrize("n_players", [2, 3, 8])
def test_block_boundaries_match_the_reference(n_players):
    # every count, to the order, against the reference's 64-bit keys; the
    # cache is cleared before every draw, so each compares a fresh one
    for samples in _BLOCK_COUNTS:
        sampling_mod._order_counts.cache_clear()
        counts = sampling_mod._order_counts(n_players, samples, 23)
        keys = mt19937_keys(23, samples, n_players)
        expected = np.count_nonzero(keys[:, :-1] > keys[:, -1:], axis=0)
        assert counts == tuple(expected.tolist()), samples


def _assert_exact_mean(game, samples, seed):
    # every payoff is the exactly rounded mean of its own orders' marginals,
    # up to a few ulps
    sampled = shapley_sampling(game, samples, seed=seed).payoffs
    exact = sampling_exact_mean(game, samples, seed=seed)
    for pid in game.players:
        target = float(exact[pid])
        assert abs(sampled[pid] - target) <= 4 * math.ulp(target), (pid, samples)


def test_matches_the_exact_mean_of_its_orders(rng):
    # 200 000 orders span four blocks
    game = heterogeneous_game()
    for samples in _BLOCK_COUNTS[1:] + (200_000,):
        _assert_exact_mean(game, samples, seed=11)
    for n_players in (2, 3, 7, 22):
        game = random_game(rng, n_sps=n_players - 1)
        # the oracle visits every distinct set of providers before the owner:
        # at 22 players nearly every order has its own, and a block of them
        # is too slow for tier-1
        for samples in _BLOCK_COUNTS[1:] if n_players < 22 else _BLOCK_COUNTS[:1]:
            _assert_exact_mean(game, samples, seed=5)


@pytest.mark.parametrize("samples", [1, 7, 10**5])
def test_stderr_is_the_exact_one_whatever_the_orders(rng, samples):
    # the standard errors are the estimator's under uniform orders, not ones
    # read off the orders drawn, so even one order has a positive one
    for n_players in range(2, 13):
        game = random_game(rng, n_sps=n_players - 1)
        stderr = shapley_sampling(game, samples, seed=n_players).stderr
        exact = sampling_exact_stderr(game, samples)
        rounding = _table_rounding(game, samples)
        for pid in game.players:
            assert stderr[pid] == pytest.approx(exact[pid], rel=1e-12, abs=rounding), pid
        assert stderr[NO] > 0.0


def test_memory_does_not_grow_with_samples(rng):
    # the working set is one block's planes, 8 KiB each: the owner's, one per
    # bit of the block's longest tie, and a few ints of the comparison. Over
    # 21 providers x 2^16 orders a tie outlasts 32 planes with probability
    # below 21 * 2^16 * 2^-32 = 3.2e-4, so 32 owner planes and 10 more ints
    # bound it; a million orders of 22 players as 64-bit keys would be 176 MB
    bound = (32 + 10) * (_BLOCK // 8)
    for n_players in (8, 22):
        game = random_game(rng, n_sps=n_players - 1)
        sampling_mod._order_counts.cache_clear()  # a cache hit would draw nothing
        tracemalloc.start()
        try:
            shapley_sampling(game, 10**6, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (n_players, peak)


# prints the 2- and 3-player estimates at 10^5 orders, to every digit
_PRINT_ESTIMATES = """
from coinvest import GameInstance, LoadProfile, MarketParams, ServiceProvider, shapley_sampling
from coinvest.sampling import _order_counts
market = MarketParams()
for betas in ((2.8e-06,), (2.8e-06, 1.4e-06)):
    sps = tuple(
        ServiceProvider(f"SP{k}", beta, LoadProfile([1e4 * (k + 1)] * market.T))
        for k, beta in enumerate(betas)
    )
    _order_counts.cache_clear()  # each estimate is a fresh draw
    result = shapley_sampling(GameInstance(market, sps), 10**5, seed=7)
    print(repr(result.payoffs), repr(result.stderr))
"""


def test_bits_do_not_depend_on_the_thread_count():
    # a BLAS call may split its sum across threads; the sampler makes none,
    # so fresh processes allowed one or two BLAS threads print the same bits
    src = str(Path(sampling_mod.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    printed = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        child = subprocess.run(
            [sys.executable, "-c", _PRINT_ESTIMATES], capture_output=True, text=True, env=env
        )
        assert child.returncode == 0, child.stderr
        printed.add(child.stdout)
    assert len(printed) == 1, printed


def test_cached_counts_are_read_only():
    counts = sampling_mod._order_counts(5, 100, 1)
    assert isinstance(counts, tuple) and len(counts) == 4
    with pytest.raises(TypeError):
        counts[0] = 0


def test_a_repeated_draw_reads_the_cache(rng, monkeypatch):
    # instances of one player count sampled with one seed draw their orders
    # once: the second game's estimate starts no stream
    calls = []

    class Counted(random.Random):
        def __init__(self, key):
            calls.append(key)
            super().__init__(key)

    monkeypatch.setattr(sampling_mod, "Random", Counted)
    sampling_mod._order_counts.cache_clear()
    first, second = random_game(rng, n_sps=4), random_game(rng, n_sps=4)
    shapley_sampling(first, 5000, seed=9)
    drawn = len(calls)
    assert drawn > 0
    shapley_sampling(second, 5000, seed=9)
    assert len(calls) == drawn
    shapley_sampling(second, 5000, seed=10)
    assert len(calls) > drawn


def test_instance_route_runs_past_the_enumeration_bound(rng):
    game = random_game(rng, n_sps=29)
    closed = shapley_closed_form(game).payoffs
    sampled = shapley_sampling(game, 20_000, seed=17)
    for pid in game.players:
        margin = 4.0 * sampled.stderr[pid] + 1e-9 * max(1.0, abs(closed[pid]))
        assert abs(sampled.payoffs[pid] - closed[pid]) <= margin
    grand = coalition_value(game, game.players)
    assert abs(math.fsum(sampled.payoffs.values()) - grand) <= 1e-9 * max(1.0, grand)


@pytest.mark.parametrize(
    "providers",
    [
        # v(N) near 1e302: the squared marginals alone would overflow
        (("a", 1e150, 1e150), ("b", 2e150, 1e150), ("c", 1.5e150, 1e150)),
        # v(N) near 1.6e308: even the sum of the owner's marginals would
        (("a", 1e303, 450.0),),
    ],
)
def test_stays_finite_at_huge_scale(market, providers):
    T = market.T
    game = GameInstance(
        market,
        tuple(
            ServiceProvider(pid, beta, LoadProfile([total / T] * T))
            for pid, beta, total in providers
        ),
    )
    closed = shapley_closed_form(game).payoffs
    sampled = shapley_sampling(game, 2000, seed=3)
    assert all(math.isfinite(se) and se > 0.0 for se in sampled.stderr.values())
    for pid in game.players:
        margin = 4.0 * sampled.stderr[pid] + 1e-9 * abs(closed[pid])
        assert abs(sampled.payoffs[pid] - closed[pid]) <= margin


_MARKET = MarketParams()
_PRICE = amortized_unit_price(_MARKET)

# a zero benefit factor gives a null provider, a zero total an idle one
_providers = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        st.one_of(st.just(0.0), st.floats(1e3, 2e6)),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(providers=_providers, seed=st.integers(0, 2**32), samples=st.integers(1, 3000))
def test_sampled_payoffs_are_bounded_and_efficient(providers, seed, samples):
    T = _MARKET.T
    game = GameInstance(
        _MARKET,
        tuple(
            ServiceProvider(f"SP{k}", factor * _PRICE, LoadProfile([total / T] * T))
            for k, (factor, total) in enumerate(providers)
        ),
    )
    sampled = shapley_sampling(game, samples, seed)
    assert all(math.isfinite(x) for x in sampled.payoffs.values())
    assert all(math.isfinite(x) for x in sampled.stderr.values())
    grand = coalition_value(game, game.players)
    assert abs(math.fsum(sampled.payoffs.values()) - grand) <= 1e-9 * max(1.0, grand)
    optima = game.standalone_optima()
    for sp in game.sps:
        # a mean of k equal terms can round a few ulps above the term
        assert 0.0 <= sampled.payoffs[sp.id] <= optima[sp.id].value * (1.0 + 1e-12)
    # so every coalition S with the owner gets v(S) plus the sum of m_i - x_i
    # over the providers outside it, and every other coalition is worth 0:
    # sampled payoffs lie in the core, up to rounding (at most 9 players here,
    # so brute force is cheap)
    assert check_core_structural(game, sampled.payoffs).in_core
    assert check_core(coalition_table(game), sampled.payoffs).in_core
