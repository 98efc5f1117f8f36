"""Exact Shapley routes, marginal contributions, and their cross-oracles."""

import hashlib
import json
import math
from functools import partial

import pytest

from coinvest import (
    NO,
    GameInstance,
    LoadProfile,
    MarketParams,
    ServiceProvider,
    amortized_unit_price,
    coalition_table,
    coalition_value,
    shapley_closed_form,
    shapley_enumeration,
)
from coinvest.cli import _build_groups
from coinvest.config import load_preset, parse_config, preset_names

from conftest import (
    TABLE_KINDS,
    TabularGame,
    bloated_game,
    coalitions_by_mask,
    load_bench_module,
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
        result = shapley_enumeration(game.table())
        # two orderings: the second player to arrive collects the whole 10
        assert result.payoffs == {"SP1": 5.0, NO: 5.0}

    def test_two_providers_hand_case(self):
        game = veto_table_game({"SP1": 10.0, "SP2": 30.0})
        oracle = shapley_by_orderings(game.players, game.value)
        for array in TABLE_KINDS.values():
            result = shapley_enumeration(game.table(array))
            for pid, expected in {"SP1": 5.0, "SP2": 15.0, NO: 20.0}.items():
                assert result.payoffs[pid] == pytest.approx(expected, rel=1e-12)
                assert result.payoffs[pid] == pytest.approx(oracle[pid], rel=1e-12)

    def test_matches_ordering_oracle_on_instances(self, rng):
        for _ in range(5):
            game = random_game(rng, n_sps=int(rng.integers(1, 5)))
            oracle = shapley_by_orderings(game.players, partial(coalition_value, game))
            for array in TABLE_KINDS.values():
                result = shapley_enumeration(coalition_table(game, array))
                for pid in game.players:
                    assert result.payoffs[pid] == pytest.approx(oracle[pid], rel=1e-9, abs=1e-12)

    def test_veto_player_anywhere(self):
        # enumeration sums the other players' marginals over the veto player's
        # half of the table, wherever that player sits; the ordering oracle
        # reads every coalition. The values are convex, not additive
        profits = {"SP1": 3.0, "SP2": 1.0, "SP3": 0.5, "SP4": 2.0}
        base = veto_table_game(profits)
        values = {
            c: base.value(c) + (NO in c) * len(c) ** 2 for c in coalitions_by_mask(base.players)
        }
        for position in range(len(base.players)):
            players = list(profits)
            players.insert(position, NO)
            game = TabularGame(players, values, default=None)
            oracle = shapley_by_orderings(game.players, game.value)
            for array in TABLE_KINDS.values():
                result = shapley_enumeration(game.table(array))
                for pid in game.players:
                    assert result.payoffs[pid] == pytest.approx(oracle[pid], rel=1e-12), (
                        position, pid
                    )

    def test_null_provider_gets_nothing(self, rng, market):
        sps = random_game(rng, n_sps=2).sps + (
            ServiceProvider("SP3", 0.0, LoadProfile((100.0,) * market.T)),
        )
        game = GameInstance(market, sps)
        assert shapley_enumeration(coalition_table(game)).payoffs["SP3"] == 0.0

    def test_owner_gets_half_of_everything(self, rng):
        for _ in range(10):
            game = random_game(rng)
            result = shapley_enumeration(coalition_table(game))
            grand = coalition_value(game, game.players)
            assert abs(result.payoffs[NO] - grand / 2.0) <= 1e-9 * max(1.0, grand)

    def test_player_bound(self):
        with pytest.raises(ValueError, match="sampling"):
            shapley_enumeration(coalition_table(bloated_game()))

    def test_payoff_bits_are_pinned(self, monkeypatch):
        # sha256 of every payoff's float.hex, per table kind, over the six
        # presets' instances and 36 seeded games of 2 to 14 players; the
        # ndarray sum and fsum round differently, so each kind has its digest
        workloads = load_bench_module(monkeypatch, "workloads")
        configs = [parse_config(load_preset(name)) for name in preset_names()]
        configs += [
            parse_config(json.dumps(workloads.custom_game(seed, n, 5000)))
            for seed in range(6)
            for n in (2, 3, 5, 8, 12, 14)
        ]
        games = [game for cfg in configs for *_, group in _build_groups(cfg) for game in group]
        assert len(games) == 157
        digests = {}
        for kind, array in TABLE_KINDS.items():
            digest = hashlib.sha256()
            for game in games:
                payoffs = shapley_enumeration(coalition_table(game, array)).payoffs
                for pid, payoff in payoffs.items():
                    digest.update(f"{pid} {float.hex(payoff)}\n".encode())
            digests[kind] = digest.hexdigest()
        assert digests == {
            "ndarray": "94a4b6242adf1a355ac3d0ababe736eb86b5b9385d5eebec95bbd34a7522d23e",
            "tuple": "3340a067c8d840720a192d6eed2e24ab4b8d160d2b47daa0c2a5880e828e2a19",
        }


class TestClosedForm:
    def test_matches_enumeration_randomized(self, rng):
        for _ in range(30):
            game = random_game(rng)
            closed = shapley_closed_form(game).payoffs
            exact = shapley_enumeration(coalition_table(game)).payoffs
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
        for result in (shapley_closed_form(game), shapley_enumeration(coalition_table(game))):
            assert result.payoffs["A"] == pytest.approx(result.payoffs["B"], rel=1e-12)

    def test_efficiency(self, rng):
        for _ in range(10):
            game = random_game(rng)
            grand = coalition_value(game, game.players)
            for result in (shapley_closed_form(game), shapley_enumeration(coalition_table(game))):
                total = math.fsum(result.payoffs.values())
                assert abs(total - grand) <= 1e-9 * max(1.0, grand)
