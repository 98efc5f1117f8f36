"""Domain types, the utility function, single-provider optima, coalition values."""

import math

import numpy as np
import pytest

from coinvest import (
    NO,
    GameInstance,
    LoadProfile,
    MarketParams,
    ServiceProvider,
    amortized_unit_price,
    coalition_value,
    eval_utility,
    grand_allocation,
    optimal_allocation_single,
)

from conftest import golden_max_single, grid_max_joint, grid_max_single, random_game


def constant_profile(total, T=96):
    return LoadProfile((total / T,) * T)


class TestEvalUtility:
    def test_zero_allocation_earns_nothing(self):
        assert eval_utility(1.0, 1.0, 5.0, 0.0) == 0.0

    def test_half_saturation_at_log_two(self):
        assert eval_utility(1.0, 1.0, 1.0, math.log(2.0)) == pytest.approx(0.5, rel=1e-12)

    def test_direct_evaluation(self):
        # 2 * 100 * (1 - e^-1), frozen from an independent evaluation
        got = eval_utility(2.0, 0.001, 100.0, 1000.0)
        assert got == pytest.approx(126.42411176571153, rel=1e-12)
        assert got == pytest.approx(200.0 * (1.0 - math.exp(-1.0)), rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": -1.0, "xi": 1.0, "load": 1.0, "h": 1.0},
            {"beta": 1.0, "xi": 0.0, "load": 1.0, "h": 1.0},
            {"beta": 1.0, "xi": -2.0, "load": 1.0, "h": 1.0},
            {"beta": 1.0, "xi": 1.0, "load": -1.0, "h": 1.0},
            {"beta": 1.0, "xi": 1.0, "load": 1.0, "h": -0.5},
            {"beta": float("nan"), "xi": 1.0, "load": 1.0, "h": 1.0},
        ],
    )
    def test_rejects_out_of_domain(self, kwargs):
        with pytest.raises(ValueError):
            eval_utility(**kwargs)

    def test_bounded_monotone_concave(self, rng):
        for _ in range(50):
            beta = float(rng.uniform(0.0, 3.0))
            xi = float(rng.uniform(1e-4, 1e-1))
            load = float(rng.uniform(0.0, 1e4))
            a, b = sorted(rng.uniform(0.0, 1e4, size=2))
            ua, ub = eval_utility(beta, xi, load, a), eval_utility(beta, xi, load, b)
            assert 0.0 <= ua <= beta * load + 1e-12
            assert ub >= ua - 1e-12
            mid = eval_utility(beta, xi, load, (a + b) / 2.0)
            assert mid >= (ua + ub) / 2.0 - 1e-9


class TestDomainTypes:
    def test_market_derived_days(self):
        assert MarketParams().D == 365
        assert MarketParams(Y=3).D == 1095

    @pytest.mark.parametrize("kwargs", [{"d": 0.0}, {"d": -1.0}, {"Y": 0}, {"T": 0}, {"xi": 0.0}])
    def test_market_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MarketParams(**kwargs)

    def test_load_profile_rejects_negative(self):
        with pytest.raises(ValueError):
            LoadProfile((1.0, -0.1, 2.0))
        with pytest.raises(ValueError):
            LoadProfile((float("inf"),))

    def test_load_profile_total(self):
        profile = LoadProfile((1.0, 2.5, 0.0))
        assert profile.total == 3.5
        assert len(profile) == 3

    def test_provider_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            ServiceProvider("A", -1e-9, LoadProfile((1.0,)))

    def test_game_validates_members(self, market):
        load = constant_profile(1e5)
        with pytest.raises(ValueError):
            GameInstance(market, ())
        with pytest.raises(ValueError):
            GameInstance(market, (ServiceProvider("A", 0.0, load), ServiceProvider("A", 0.0, load)))
        with pytest.raises(ValueError):
            GameInstance(market, (ServiceProvider(NO, 0.0, load),))
        with pytest.raises(ValueError):
            GameInstance(market, (ServiceProvider("A", 0.0, LoadProfile((1.0, 2.0))),))
        with pytest.raises(ValueError, match="'A'.*finite"):
            GameInstance(market, (ServiceProvider("A", 1e300, constant_profile(1e300)),))

    def test_game_rejects_overflowing_grand_value(self, market):
        huge = ServiceProvider("A", 1e303, constant_profile(450.0))
        assert math.isfinite(optimal_allocation_single(huge, market).value)
        with pytest.raises(ValueError, match=r"\['A', 'B'\].*largest finite float"):
            GameInstance(market, (huge, ServiceProvider("B", huge.beta, huge.load)))


class TestSingleOptimum:
    def test_zero_beta_stays_out(self, market):
        sp = ServiceProvider("A", 0.0, constant_profile(1e6))
        for h, value in (optimal_allocation_single(sp, market), golden_max_single(sp, market)):
            assert h == 0.0 and value == 0.0

    def test_below_threshold_stays_out(self, market, rng):
        # gain = D*xi*beta*L/d <= 1 means no positive allocation beats zero
        price = amortized_unit_price(market)
        sp = ServiceProvider("A", price, constant_profile(9e4))  # threshold is T/xi = 96000
        for h, value in (optimal_allocation_single(sp, market), golden_max_single(sp, market)):
            assert h == 0.0 and value == 0.0
        h_grid, best, _ = grid_max_single(sp, market, steps=20000)
        assert best <= 1e-9

    def test_reference_case_matches_grid(self, market):
        # same-type rate, one million requests a day
        sp = ServiceProvider("A", amortized_unit_price(market), constant_profile(1e6))
        h_cf, m_cf = optimal_allocation_single(sp, market)
        h_grid, m_grid, step = grid_max_single(sp, market)
        assert abs(h_cf - h_grid) <= step * (1.0 + 1e-9)
        assert abs(m_cf - m_grid) <= 1e-6 * max(1.0, abs(m_cf))

    def test_closed_matches_golden_randomized(self, rng):
        for _ in range(40):
            market = MarketParams(
                d=float(rng.uniform(0.01, 0.2)),
                xi=float(rng.uniform(2e-4, 5e-3)),
            )
            beta = float(rng.uniform(0.0, 10.0 * amortized_unit_price(market)))
            sp = ServiceProvider("A", beta, constant_profile(float(rng.uniform(1e4, 5e6))))
            h_cf, m_cf = optimal_allocation_single(sp, market)
            h_num, m_num = golden_max_single(sp, market)
            assert abs(h_cf - h_num) <= 1e-6 * max(1.0, h_cf)
            assert abs(m_cf - m_num) <= 1e-9 * max(1.0, m_cf)

    def test_numeric_optimum_is_a_local_max(self, market):
        sp = ServiceProvider("A", 3.0 * amortized_unit_price(market), constant_profile(8e5))
        h, value = optimal_allocation_single(sp, market)
        scale = market.D * sp.beta * sp.load.total

        def profit(x):
            return scale * (1.0 - math.exp(-market.xi * x)) - market.d * x

        delta = 1e-6 * max(1.0, h)
        slack = 1e-9 * max(1.0, abs(value))
        assert profit(h) >= profit(h + delta) - slack
        if h - delta >= 0.0:
            assert profit(h) >= profit(h - delta) - slack

    def test_scaling_load_shifts_optimum_logarithmically(self, market):
        price = amortized_unit_price(market)
        for k in (2.0, 5.0, 10.0):
            sp1 = ServiceProvider("A", price, constant_profile(2e5))
            sp2 = ServiceProvider("A", price, constant_profile(2e5 * k))
            h1, _ = optimal_allocation_single(sp1, market)
            h2, _ = optimal_allocation_single(sp2, market)
            assert h1 > 0.0
            assert h2 - h1 == pytest.approx(math.log(k) / market.xi, rel=1e-9)


class TestCoalitionValue:
    def test_veto_without_owner(self, rng):
        game = random_game(rng, n_sps=3)
        assert coalition_value(game, ["SP1", "SP2"]) == 0.0
        assert coalition_value(game, ["SP1", "SP2", "SP3"]) == 0.0

    def test_owner_alone_earns_nothing(self, rng):
        game = random_game(rng, n_sps=2)
        assert coalition_value(game, [NO]) == 0.0
        assert coalition_value(game, []) == 0.0

    def test_unknown_player_rejected(self, rng):
        game = random_game(rng, n_sps=2)
        with pytest.raises(ValueError):
            coalition_value(game, [NO, "SP9"])

    def test_pair_equals_single_optimum(self, market):
        sp = ServiceProvider("SP1", 2.0 * amortized_unit_price(market), constant_profile(6e5))
        game = GameInstance(market, (sp,))
        value = coalition_value(game, [NO, "SP1"])
        _, m1 = optimal_allocation_single(sp, market)
        assert value == m1
        # 1-D brute force over the capacity grid agrees within its resolution
        _, grid_best, _ = grid_max_single(sp, market, steps=200_000)
        assert grid_best <= value + 1e-9
        assert value - grid_best <= 1e-6 * max(1.0, value)

    def test_monotone_in_members(self, rng):
        game = random_game(rng, n_sps=4)
        players = game.players
        import itertools

        values = {}
        for r in range(len(players) + 1):
            for coal in itertools.combinations(players, r):
                values[frozenset(coal)] = coalition_value(game, coal)
        for small, v_small in values.items():
            for large, v_large in values.items():
                if small <= large:
                    assert v_small <= v_large + 1e-12

    def test_separable_value_matches_joint_brute_force(self, rng):
        for _ in range(5):
            market = MarketParams()
            price = amortized_unit_price(market)
            sps = tuple(
                ServiceProvider(
                    f"SP{k}",
                    float(rng.uniform(price, 4.0 * price)),
                    constant_profile(float(rng.uniform(3e5, 2e6))),
                )
                for k in (1, 2)
            )
            game = GameInstance(market, sps)
            value = coalition_value(game, game.players)
            grid_best, gap_bound = grid_max_joint(game)
            assert grid_best <= value + 1e-9 * max(1.0, value)
            assert value - grid_best <= 2.0 * gap_bound + 1e-9


class TestGrandAllocation:
    def test_all_idle_providers(self, market):
        load = constant_profile(1e5)
        game = GameInstance(market, (ServiceProvider("A", 0.0, load), ServiceProvider("B", 0.0, load)))
        alloc = grand_allocation(game)
        assert alloc.C == 0.0
        assert all(v == 0.0 for v in alloc.h.values())

    def test_single_provider_gets_everything(self, market):
        sp = ServiceProvider("A", 2e-6, constant_profile(8e5))
        game = GameInstance(market, (sp,))
        alloc = grand_allocation(game)
        assert alloc.C == alloc.h["A"]
        assert alloc.h[NO] == 0.0

    def test_identical_providers_split_evenly(self, market):
        load = constant_profile(5e5)
        sps = (ServiceProvider("A", 2e-6, load), ServiceProvider("B", 2e-6, load))
        alloc = grand_allocation(GameInstance(market, sps))
        assert alloc.h["A"] == pytest.approx(alloc.h["B"], rel=1e-9)
        assert alloc.C == pytest.approx(alloc.h["A"] + alloc.h["B"], rel=1e-12)
