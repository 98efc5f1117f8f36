"""Permutation-sampling Shapley estimator: determinism, accuracy, edge cases."""

import math
import tracemalloc

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
    coalition_value,
    shapley_closed_form,
    shapley_enumeration,
    shapley_sampling,
)
from coinvest import shapley as shapley_mod

from conftest import heterogeneous_game, random_game, sampling_by_table, sampling_exact_mean


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
    exact = shapley_enumeration(game).payoffs
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


def _chunk_rows(n_players):
    """Orders the sampler draws per reused key buffer at this player count."""
    return shapley_mod._CHUNK_CELLS // n_players


# a sample count inside one chunk, one either side of a chunk boundary, and
# one that ends three orders into a second 2^17-order block
def _sample_counts(n_players):
    rows = _chunk_rows(n_players)
    return (3000, rows - 1, rows + 1, (1 << 17) + 3)


# 2^15 keys are no whole number of 3- or 7-player orders; 2 is the smallest game
@pytest.mark.parametrize("n_players", [3, 8, 12, 2, 7])
def test_instance_and_table_routes_agree(rng, n_players):
    # the same arrival keys walked through the coalition table
    game = random_game(rng, n_sps=n_players - 1)
    for samples in _sample_counts(n_players):
        direct = shapley_sampling(game, samples, seed=13)
        payoffs, stderr = sampling_by_table(game, samples, seed=13)
        for pid in game.players:
            assert direct.payoffs[pid] == pytest.approx(payoffs[pid], rel=1e-9, abs=1e-9)
            assert direct.stderr[pid] == pytest.approx(stderr[pid], rel=1e-9, abs=1e-9)


def _assert_exact_mean(game, samples, seed):
    # every payoff is the exactly rounded mean of its own orders' marginals,
    # up to a few ulps
    sampled = shapley_sampling(game, samples, seed=seed).payoffs
    exact = sampling_exact_mean(game, samples, seed=seed)
    for pid in game.players:
        target = float(exact[pid])
        assert abs(sampled[pid] - target) <= 4 * math.ulp(target), (pid, samples)


def test_matches_the_exact_mean_of_its_orders(rng):
    # 200 000 orders span two blocks of keys
    game = heterogeneous_game()
    for samples in _sample_counts(len(game.players))[1:] + (200_000,):
        _assert_exact_mean(game, samples, seed=11)
    for n_players in (2, 3, 7, 22):
        game = random_game(rng, n_sps=n_players - 1)
        counts = _sample_counts(n_players)[1:]
        # the oracle visits every distinct set of providers before the owner:
        # past a block of 22-player orders that is too slow for tier-1
        for samples in counts if n_players < 22 else counts[:2]:
            _assert_exact_mean(game, samples, seed=5)


def test_memory_does_not_grow_with_samples(rng):
    # no (samples, n) or (block, n) key matrix: a million orders of 8 players
    # would need 64 MB of keys, a 2^17-order block 8 MB
    game = random_game(rng, n_sps=7)
    tracemalloc.start()
    try:
        shapley_sampling(game, 10**6, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


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
