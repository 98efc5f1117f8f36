"""Core membership, supermodularity, and player classification checks."""

import pytest

import math

import numpy as np

import coinvest.game
from coinvest import (
    NO,
    GameInstance,
    LoadProfile,
    ServiceProvider,
    check_core,
    check_supermodularity,
    classify_players,
    coalition_value,
    shapley_closed_form,
    shapley_enumeration,
)

from conftest import (
    TabularGame,
    bloated_game,
    classification_scan,
    coalitions_by_mask,
    core_scan,
    heterogeneous_game,
    marginal_contribution,
    random_game,
    supermodularity_scan,
    veto_table_game,
)


def nonconvex_fixture():
    """Three symmetric players where pairs are worth almost as much as the trio."""
    return TabularGame(
        ("P1", "P2", "P3"),
        {
            frozenset(["P1", "P2"]): 10.0,
            frozenset(["P1", "P3"]): 10.0,
            frozenset(["P2", "P3"]): 10.0,
            frozenset(["P1", "P2", "P3"]): 12.0,
        },
        default=0.0,
    )


def integer_games(count=210, seed=7):
    """Hand-built games with integer values, so every check is exact.

    A third have arbitrary values; the rest are convex (additive plus
    |S|^2), half of those with a few coalitions nudged by up to 2.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        players = tuple(f"P{i}" for i in range(int(rng.integers(1, 7))))
        weights = dict(zip(players, rng.integers(0, 5, size=len(players)).tolist()))
        values = {}
        for coalition in coalitions_by_mask(players)[1:]:
            if k % 3 == 0:
                worth = int(rng.integers(0, 10))
            else:
                worth = sum(weights[p] for p in coalition) + len(coalition) ** 2
                if k % 3 == 2 and rng.random() < 0.1:
                    worth += int(rng.integers(-2, 3))
            values[coalition] = float(worth)
        yield TabularGame(players, values, default=0.0)


def oracle_games():
    yield nonconvex_fixture()
    yield veto_table_game({"SP1": 3.0, "SP2": 1.0, "SP3": 0.0})
    yield from integer_games()


class TestCore:
    def test_shapley_payoffs_are_in_the_core(self, rng):
        for _ in range(30):
            game = random_game(rng)
            result = check_core(game, shapley_enumeration(game).payoffs)
            assert result.in_core, result.violating_coalition

    def test_lopsided_vector_is_blocked(self, market):
        load = LoadProfile((8e5 / market.T,) * market.T)
        beta = 3e-6
        game = GameInstance(
            market, (ServiceProvider("A", beta, load), ServiceProvider("B", beta, load))
        )
        grand = coalition_value(game, game.players)
        assert grand > 0.0
        payoffs = {"A": grand, "B": 0.0, NO: 0.0}
        result = check_core(game, payoffs)
        assert not result.in_core
        blocked = result.violating_coalition
        assert blocked is not None
        inside = sum(payoffs[p] for p in blocked)
        assert coalition_value(game, blocked) > inside

    def test_zero_game_zero_vector(self, market):
        game = GameInstance(market, (ServiceProvider("A", 0.0, LoadProfile((1.0,) * market.T)),))
        assert check_core(game, {"A": 0.0, NO: 0.0}).in_core

    def test_efficiency_is_required(self, rng):
        game = random_game(rng, n_sps=2)
        payoffs = dict(shapley_closed_form(game).payoffs)
        payoffs[NO] += 1.0  # over-distributes: rational everywhere but inefficient
        result = check_core(game, payoffs)
        assert not result.in_core
        assert result.violating_coalition is None

    def test_missing_player_rejected(self, rng):
        game = random_game(rng, n_sps=2)
        with pytest.raises(ValueError):
            check_core(game, {"SP1": 0.0, NO: 0.0})

    def test_slack_map(self, rng):
        # payoff minus value: zero on the empty and the grand coalition, never negative
        game = random_game(rng, n_sps=2)
        payoffs = shapley_closed_form(game).payoffs
        assert check_core(game, payoffs).in_core
        slack = {
            c: math.fsum(payoffs[p] for p in c) - v
            for c, v in zip(coalitions_by_mask(game.players), game.coalition_table())
        }
        assert slack[frozenset()] == 0.0
        assert len(slack) == 2 ** len(game.players)
        assert all(gap >= -1e-9 for gap in slack.values())
        assert slack[frozenset(game.players)] == pytest.approx(0.0, abs=1e-9)

    def test_player_bound(self):
        bloated = bloated_game()
        with pytest.raises(ValueError, match="enumeration bound"):
            check_core(bloated, {p: 0.0 for p in bloated.players})

    def test_rounding_shortfall_is_not_blocked(self):
        # Estimated payoffs may sum to the grand value only up to rounding;
        # a shortfall of 1.2e-9 on ~2581 is noise relative to the grand value,
        # but an absolute slack of 1e-9 per coalition used to report the
        # grand coalition as blocking.
        game = heterogeneous_game()
        payoffs = dict(shapley_closed_form(game).payoffs)
        payoffs[NO] -= 1.2e-9
        grand = coalition_value(game, game.players)
        assert 1e-9 < grand - math.fsum(payoffs.values()) < 1e-9 * grand
        assert check_core(game, payoffs).in_core

    def test_relative_violation_is_blocked(self):
        game = heterogeneous_game()
        payoffs = dict(shapley_closed_form(game).payoffs)
        grand = coalition_value(game, game.players)
        moved = payoffs["SP01"] + 1e-6 * grand
        payoffs["SP01"] -= moved
        payoffs[NO] += moved
        result = check_core(game, payoffs)
        assert not result.in_core
        assert result.violating_coalition == frozenset({"SP01"})


class TestSupermodularity:
    def test_holds_on_random_instances(self, rng):
        for _ in range(30):
            game = random_game(rng, n_sps=int(rng.integers(1, 5)))
            report = check_supermodularity(game)
            assert report.holds, report.counterexample

    def test_rejects_nonconvex_fixture(self):
        game = nonconvex_fixture()
        report = check_supermodularity(game)
        assert not report.holds
        pid, smaller, larger = report.counterexample
        assert smaller <= larger
        assert pid not in smaller and pid not in larger
        # the reported triple really does violate the inequality
        assert marginal_contribution(game, pid, smaller) > marginal_contribution(
            game, pid, larger
        )

    def test_zero_game_holds(self, market):
        game = GameInstance(market, (ServiceProvider("A", 0.0, LoadProfile((1.0,) * market.T)),))
        assert check_supermodularity(game).holds

    def test_hand_built_veto_game_holds(self):
        assert check_supermodularity(veto_table_game({"SP1": 3.0, "SP2": 1.0})).holds

    def test_tolerance_scales_with_grand_value(self):
        # at v(N) ~ 2e12 a shortfall of 1 is rounding, one of 1e4 is not
        for shortfall, holds in ((1.0, True), (1e4, False)):
            values = {("A",): 1e12, ("B",): 1e12, ("A", "B"): 2e12 - shortfall}
            report = check_supermodularity(TabularGame(("A", "B"), values))
            assert report.holds is holds

    def test_player_bound(self):
        with pytest.raises(ValueError, match="enumeration bound"):
            check_supermodularity(bloated_game())

    def test_accepts_thirteen_players(self):
        game = TabularGame(tuple(f"P{i}" for i in range(13)), {}, default=0.0)
        assert check_supermodularity(game).holds


class TestClassification:
    def test_owner_is_veto(self, rng):
        game = random_game(rng, n_sps=3)
        flags = classify_players(game)
        assert flags[NO].veto

    def test_idle_provider_is_null(self, market):
        load = LoadProfile((5e5 / market.T,) * market.T)
        game = GameInstance(
            market,
            (
                ServiceProvider("A", 3e-6, load),
                ServiceProvider("B", 0.0, load),
                ServiceProvider("C", 4e-6, load),
            ),
        )
        flags = classify_players(game)
        assert flags["B"].null and not flags["B"].veto
        # A is productive but not essential: the game thrives without it via C
        assert not flags["A"].null and not flags["A"].veto
        assert flags[NO].veto and not flags[NO].null

    def test_degenerate_game_flags_owner_both_ways(self, market):
        game = GameInstance(market, (ServiceProvider("A", 0.0, LoadProfile((1.0,) * market.T)),))
        flags = classify_players(game)
        assert flags[NO].veto and flags[NO].null
        assert flags["A"].veto and flags["A"].null


class TestLoopOracles:
    def test_core_matches_scan(self):
        rng = np.random.default_rng(11)
        verdicts = set()
        for game in oracle_games():
            players = game.players
            grand = game.value(frozenset(players))
            guess = dict(zip(players, rng.integers(-2, 6, size=len(players)).astype(float)))
            guess[players[-1]] += grand - sum(guess.values())
            for payoffs in (shapley_enumeration(game).payoffs, guess):
                result = check_core(game, payoffs)
                expected = core_scan(game, payoffs)
                assert (result.in_core, result.violating_coalition) == expected
                verdicts.add(result.in_core)
        assert verdicts == {True, False}

    def test_supermodularity_matches_scan(self):
        verdicts = set()
        for game in oracle_games():
            report = check_supermodularity(game)
            assert report.holds == supermodularity_scan(game)
            verdicts.add(report.holds)
            if not report.holds:
                pid, smaller, larger = report.counterexample
                assert smaller <= larger and pid not in larger
                assert marginal_contribution(game, pid, smaller) > (
                    marginal_contribution(game, pid, larger) + 1e-9
                )
        assert verdicts == {True, False}

    def test_classification_matches_scan(self):
        for game in oracle_games():
            assert classify_players(game) == classification_scan(game)

    def test_one_table_serves_every_check(self, monkeypatch, rng):
        build = coinvest.game._fsum_subset_sums
        builds = []

        def counting(x):
            builds.append(len(x))
            return build(x)

        monkeypatch.setattr(coinvest.game, "_fsum_subset_sums", counting)
        game = random_game(rng, n_sps=3)
        payoffs = shapley_enumeration(game).payoffs
        assert check_core(game, payoffs).in_core
        assert check_supermodularity(game).holds
        assert classify_players(game)[NO].veto
        assert builds == [3]
