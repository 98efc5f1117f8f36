"""Domain types, the utility function, single-provider optima, coalition values."""

import math
import types

import numpy as np
import pytest

import coinvest.game as game_mod
from coinvest import (
    NO,
    GameInstance,
    LoadProfile,
    MarketParams,
    RunConfig,
    ServiceProvider,
    ShapleyMethod,
    amortized_unit_price,
    coalition_value,
    grand_allocation,
    optimal_allocation_single,
    run_sweep,
    shapley_closed_form,
)
from coinvest.game import provider_revenue

from conftest import golden_max_single, grid_max_joint, grid_max_single, random_game


def constant_profile(total, T=96):
    return LoadProfile((total / T,) * T)


def eval_utility(beta, xi, load, h):
    """Money one slot earns, ``beta * load * (1 - exp(-xi * h))``: the revenue of
    a one-slot, one-year horizon per day. Each model type checks its own input."""
    market = MarketParams(T=1, xi=xi)
    sp = ServiceProvider("A", beta, LoadProfile((load,)))
    return provider_revenue(sp, market, h) / market.D


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
        with pytest.raises(ValueError, match="total overflows"):
            LoadProfile((1e308, 1e308))

    def test_model_objects_are_immutable(self, market):
        # every operation is a pure function of its inputs, so nothing may change them
        load = constant_profile(1e6)
        game = GameInstance(market, (ServiceProvider("A", 1e-6, load),))
        [record] = run_sweep([game])
        for obj, name in (
            (market, "d"), (load, "values"), (load, "total"), (game.sps[0], "beta"),
            (game, "sps"), (game, "profits"), (game, "v_grand"), (RunConfig(), "seed"),
            (record, "v_grand"), (shapley_closed_form(game), "payoffs"),
        ):
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))

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

    def test_game_rejects_an_infinite_optimum(self):
        # beta*L and the gain D*xi*beta*L/d are finite, h* = ln(gain)/xi is not
        market = MarketParams(xi=1e-308, d=1e-10)
        sp = ServiceProvider("a", 2.74e290, constant_profile(1e6))
        assert math.isinf(optimal_allocation_single(sp, market).h_star)
        with pytest.raises(ValueError, match=r"provider 'a': .*h_star=inf.*must be finite"):
            GameInstance(market, (sp,))

    def test_load_profile_total_is_fsum(self, rng):
        for _ in range(50):
            top = 10.0 ** rng.uniform(-3, 12)
            values = tuple(rng.uniform(0.0, top, size=rng.integers(1, 200)))
            assert LoadProfile(values).total.hex() == math.fsum(values).hex()

    def test_solving_sums_each_profile_once(self, rng, monkeypatch):
        # every math.fsum call in coinvest.game whose argument is a profile's slots
        calls = []

        def fsum(values):
            calls.append(values)
            return math.fsum(values)

        fake_math = types.SimpleNamespace(**vars(math))
        fake_math.fsum = fsum
        monkeypatch.setattr(game_mod, "math", fake_math)
        market = MarketParams(T=24)
        loads = [LoadProfile(tuple(rng.uniform(0.0, 1e5, size=24))) for _ in range(3)]
        game = GameInstance(
            market, tuple(ServiceProvider(f"SP{k}", 1e-6, load) for k, load in enumerate(loads))
        )
        for method in ShapleyMethod:
            run_sweep([game], method=method, samples=100)
        for load in loads:
            assert sum(values is load.values for values in calls) == 1

    def test_game_rejects_overflowing_grand_value(self, market):
        huge = ServiceProvider("A", 1e303, constant_profile(450.0))
        assert math.isfinite(optimal_allocation_single(huge, market).value)
        with pytest.raises(ValueError, match=r"\['A', 'B'\].*largest finite float"):
            GameInstance(market, (huge, ServiceProvider("B", huge.beta, huge.load)))

    def test_game_names_only_the_repeated_ids(self, market):
        load = constant_profile(1e6)
        sps = tuple(ServiceProvider(pid, 1e-6, load) for pid in ("a", "b", "a", "c", "b", "a"))
        with pytest.raises(ValueError, match=r"unique, got \['a', 'b'\] more than once$"):
            GameInstance(market, sps)


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


class TestInstanceNumbers:
    def test_keeps_its_profits_and_grand_value(self, rng):
        # seeded random games, each with a null provider first
        for _ in range(20):
            game = random_game(rng)
            game = game._replace(sps=(ServiceProvider("idle", 0.0, game.sps[0].load), *game.sps))
            optima = game.standalone_optima()
            assert game.profits[0] == 0.0
            assert [m.hex() for m in game.profits] == [optima[sp.id].value.hex() for sp in game.sps]
            assert game.v_grand.hex() == coalition_value(game, game.players).hex()


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


class TestProviderRevenue:
    def test_equals_the_exact_sum_of_slot_utilities(self, rng):
        # each slot's product, fsum over the day, D days: bit for bit
        for _ in range(40):
            market = MarketParams(
                d=float(rng.uniform(0.01, 0.1)),
                Y=int(rng.integers(1, 4)),
                T=int(rng.integers(1, 200)),
                xi=float(10.0 ** rng.uniform(-5.0, -1.0)),
            )
            game = random_game(rng, market=market)
            alloc = grand_allocation(game)
            for sp in game.sps:
                for h in (0.0, alloc.h[sp.id], float(rng.uniform(0.0, 1e4)), 1e300):
                    served = 1.0 - math.exp(-market.xi * h)
                    want = market.D * math.fsum(sp.beta * load * served for load in sp.load.values)
                    got = provider_revenue(sp, market, h)
                    assert math.copysign(1.0, got) == math.copysign(1.0, want)
                    assert got == want, (sp.id, h)

    @pytest.mark.parametrize("h", [-1.0, -1e-300, math.nan])
    def test_invalid_allocation_raises(self, market, h):
        sp = ServiceProvider("A", 2e-6, constant_profile(8e5))
        with pytest.raises(ValueError, match="h must be >= 0"):
            provider_revenue(sp, market, h)
