"""Exact Shapley routes, marginal contributions, and their cross-oracles."""

import math

import pytest

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
)

from conftest import (
    bloated_game,
    marginal_contribution,
    random_game,
    shapley_by_orderings,
    veto_table_game,
)


class TestMarginalContribution:
    def test_provider_into_empty_coalition(self, rng):
        game = random_game(rng, n_sps=2)
        assert marginal_contribution(game, "SP1", []) == 0.0

    def test_owner_collects_everything(self, rng):
        game = random_game(rng, n_sps=3)
        expected = coalition_value(game, game.players)
        assert marginal_contribution(game, NO, ["SP1", "SP2", "SP3"]) == pytest.approx(
            expected, rel=1e-12
        )

    def test_provider_joining_owner(self, rng):
        game = random_game(rng, n_sps=2)
        got = marginal_contribution(game, "SP1", [NO])
        expected = coalition_value(game, [NO, "SP1"]) - coalition_value(game, [NO])
        assert got == expected


class TestEnumeration:
    def test_single_provider_half_split(self):
        game = veto_table_game({"SP1": 10.0})
        result = shapley_enumeration(game)
        # two orderings: the second player to arrive collects the whole 10
        assert result.payoffs == {"SP1": 5.0, NO: 5.0}

    def test_two_providers_hand_case(self):
        game = veto_table_game({"SP1": 10.0, "SP2": 30.0})
        result = shapley_enumeration(game)
        oracle = shapley_by_orderings(game.players, game.value)
        for pid, expected in {"SP1": 5.0, "SP2": 15.0, NO: 20.0}.items():
            assert result.payoffs[pid] == pytest.approx(expected, rel=1e-12)
            assert result.payoffs[pid] == pytest.approx(oracle[pid], rel=1e-12)

    def test_matches_ordering_oracle_on_instances(self, rng):
        for _ in range(5):
            game = random_game(rng, n_sps=int(rng.integers(1, 5)))
            result = shapley_enumeration(game)
            oracle = shapley_by_orderings(game.players, game.value)
            for pid in game.players:
                assert result.payoffs[pid] == pytest.approx(oracle[pid], rel=1e-9, abs=1e-12)

    def test_null_provider_gets_nothing(self, rng, market):
        sps = random_game(rng, n_sps=2).sps + (
            ServiceProvider("SP3", 0.0, LoadProfile((100.0,) * market.T)),
        )
        game = GameInstance(market, sps)
        assert shapley_enumeration(game).payoffs["SP3"] == 0.0

    def test_owner_gets_half_of_everything(self, rng):
        for _ in range(10):
            game = random_game(rng)
            result = shapley_enumeration(game)
            grand = coalition_value(game, game.players)
            assert abs(result.payoffs[NO] - grand / 2.0) <= 1e-9 * max(1.0, grand)

    def test_player_bound(self):
        with pytest.raises(ValueError, match="sampling"):
            shapley_enumeration(bloated_game())


class TestClosedForm:
    def test_matches_enumeration_randomized(self, rng):
        for _ in range(30):
            game = random_game(rng)
            closed = shapley_closed_form(game).payoffs
            exact = shapley_enumeration(game).payoffs
            for pid in game.players:
                assert abs(closed[pid] - exact[pid]) <= 1e-9 * max(1.0, abs(exact[pid]))

    def test_halves_standalone_profits(self, rng):
        game = random_game(rng, n_sps=3)
        optima = game.standalone_optima()
        payoffs = shapley_closed_form(game).payoffs
        for sp in game.sps:
            assert payoffs[sp.id] == optima[sp.id].value / 2.0
        assert payoffs[NO] == pytest.approx(
            math.fsum(o.value for o in optima.values()) / 2.0, rel=1e-12
        )

    def test_all_zero_game(self, market):
        load = LoadProfile((50.0,) * market.T)
        game = GameInstance(market, (ServiceProvider("A", 0.0, load),))
        payoffs = shapley_closed_form(game).payoffs
        assert payoffs == {"A": 0.0, NO: 0.0}

    def test_symmetric_providers_get_equal_payoffs(self, market):
        load = LoadProfile((6e5 / market.T,) * market.T)
        beta = 2.0 * amortized_unit_price(market)
        game = GameInstance(
            market, (ServiceProvider("A", beta, load), ServiceProvider("B", beta, load))
        )
        for result in (shapley_closed_form(game), shapley_enumeration(game)):
            assert result.payoffs["A"] == pytest.approx(result.payoffs["B"], rel=1e-12)

    def test_efficiency(self, rng):
        for _ in range(10):
            game = random_game(rng)
            grand = coalition_value(game, game.players)
            for result in (shapley_closed_form(game), shapley_enumeration(game)):
                total = math.fsum(result.payoffs.values())
                assert abs(total - grand) <= 1e-9 * max(1.0, grand)
