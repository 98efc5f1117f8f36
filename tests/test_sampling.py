"""Permutation-sampling Shapley estimator: determinism, accuracy, edge cases."""

import math

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


@pytest.mark.parametrize("n_players", [3, 8, 12])
def test_instance_and_table_routes_agree(rng, n_players):
    # the same arrival keys walked through the coalition table
    game = random_game(rng, n_sps=n_players - 1)
    direct = shapley_sampling(game, 3000, seed=13)
    payoffs, stderr = sampling_by_table(game, 3000, seed=13)
    for pid in game.players:
        assert direct.payoffs[pid] == pytest.approx(payoffs[pid], rel=1e-9, abs=1e-9)
        assert direct.stderr[pid] == pytest.approx(stderr[pid], rel=1e-9, abs=1e-9)


def test_matches_the_exact_mean_of_its_orders():
    # 200 000 orders span two blocks of keys; every payoff is the exactly
    # rounded mean of its own orders' marginals, up to a few ulps
    game = heterogeneous_game()
    sampled = shapley_sampling(game, 200_000, seed=11).payoffs
    exact = sampling_exact_mean(game, 200_000, seed=11)
    for pid in game.players:
        target = float(exact[pid])
        assert abs(sampled[pid] - target) <= 4 * math.ulp(target), pid


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
