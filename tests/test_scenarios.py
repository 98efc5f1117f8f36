"""Load synthesis, scenario builders, and the sweep runner."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coinvest import (
    NO,
    MarketParams,
    ShapleyMethod,
    amortized_unit_price,
    coalition_table,
    coalition_value,
    grand_allocation,
    run_sweep,
    scale_load,
    scenario_omega,
    scenario_price_sweep,
    scenario_same_type,
    shapley_enumeration,
    shapley_sampling,
    synth_load,
)
from coinvest.config import MAX_TIMESLOTS
from coinvest.scenarios import DEFAULT_D_GRID

from conftest import numpy_synth_load, random_game

_T = MarketParams().T


def _bits(values):
    """Each float's bytes: equal lists are equal bit for bit, signs of 0 included."""
    return [struct.pack("<d", v) for v in values]


class TestSynthLoad:
    def test_default_shape_balances_over_the_day(self):
        profile = synth_load(_T)
        # harmonics sum to zero over a full period, leaving the base level 1 * T
        assert profile.total == pytest.approx(_T, rel=1e-6)

    @given(T=st.integers(1, MAX_TIMESLOTS))
    @example(T=1)
    @example(T=_T)
    @example(T=MAX_TIMESLOTS)
    def test_shape_matches_numpy_bit_for_bit(self, T):
        values = synth_load(T).values
        assert _bits(values) == _bits(numpy_synth_load(T).values)
        # 1 - 0.45 - 0.15: no slot is ever clipped, every total is positive
        assert min(values) >= 0.4

    def test_repeat_calls_return_the_same_profile(self):
        first = synth_load(_T)
        assert synth_load(_T) is first
        other = synth_load(7)
        assert synth_load(7) is other and len(other) == 7
        # another T replaces the cached profile; the one rebuilt has the same bits
        assert _bits(synth_load(_T).values) == _bits(first.values)

    def test_default_price_grid_is_geometric(self):
        assert all(type(v) is float for v in DEFAULT_D_GRID)
        assert DEFAULT_D_GRID == tuple(np.geomspace(0.005, 0.5, 20))


class TestScaleLoad:
    def test_zero_factor(self):
        profile = synth_load(_T)
        assert scale_load(profile, 0.0).values == (0.0,) * len(profile)

    def test_factor_four(self):
        profile = synth_load(_T)
        scaled = scale_load(profile, 4.0)
        assert all(s == 4.0 * v for s, v in zip(scaled.values, profile.values))

    def test_identity(self):
        profile = synth_load(_T)
        assert scale_load(profile, 1.0).values == profile.values

    def test_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            scale_load(synth_load(_T), -0.1)


class TestSameType:
    def test_exact_four_to_one_split(self, market):
        game = scenario_same_type(1e6, market)
        sp1, sp2 = game.sps
        assert all(a == 4.0 * b for a, b in zip(sp1.load.values, sp2.load.values))
        assert sp1.load.total + sp2.load.total == pytest.approx(1e6, rel=1e-12)

    def test_shared_amortized_rate(self, market):
        game = scenario_same_type(7e5, market)
        price = market.d / (market.D * market.T)
        assert game.sps[0].beta == price
        assert game.sps[1].beta == price
        assert amortized_unit_price(market) == price

    def test_zero_load_is_worthless(self, market):
        game = scenario_same_type(0.0, market)
        assert coalition_value(game, game.players) == 0.0

    def test_zero_load_has_positive_zero_slots(self, market):
        # 0 / total scales the shape to +0.0 on every slot, never to -0.0
        for game in (scenario_same_type(0.0, market), scenario_omega(1.0, 0.0, market)):
            for sp in game.sps:
                assert _bits(sp.load.values) == _bits([0.0] * market.T)

    def test_capacity_grows_sublinearly(self, market):
        c1 = grand_allocation(scenario_same_type(2e6, market)).C
        c2 = grand_allocation(scenario_same_type(4e6, market)).C
        assert c1 < c2 < 2.0 * c1

    def test_rejects_negative_total(self, market):
        with pytest.raises(ValueError):
            scenario_same_type(-1.0, market)

    def test_spec_and_market_slots_must_agree(self):
        # the default shape is evaluated over the market's slots, whatever their number
        game = scenario_same_type(1e6, MarketParams(T=48))
        base = synth_load(48)
        for sp in game.sps:
            assert len(sp.load) == 48
            factor = sp.load.total / base.total
            assert sp.load.values == pytest.approx([v * factor for v in base.values], rel=1e-12)


class TestOmega:
    def test_half_equals_same_type(self, market):
        assert scenario_omega(0.5, 1e6, market) == scenario_same_type(1e6, market)

    def test_one_starves_the_first_provider(self, market):
        game = scenario_omega(1.0, 1e6, market)
        assert game.sps[0].beta == 0.0
        alloc = grand_allocation(game)
        assert alloc.h["SP1"] == 0.0
        assert alloc.h["SP2"] > 0.0

    def test_allocation_ordering_follows_rate_times_load(self, market):
        # the first provider carries 4x the load, so it keeps the larger share
        # until the skew crosses 0.8
        before = grand_allocation(scenario_omega(0.75, 1e6, market)).h
        assert before["SP1"] > before["SP2"]
        after = grand_allocation(scenario_omega(0.9, 1e6, market)).h
        assert after["SP2"] > after["SP1"]

    @pytest.mark.parametrize("omega", [0.49, 1.01, -1.0])
    def test_rejects_out_of_range(self, market, omega):
        with pytest.raises(ValueError):
            scenario_omega(omega, 1e6, market)


class TestPriceSweep:
    def test_capacity_and_value_fall_with_price(self, market):
        d_grid = [0.005, 0.02, 0.05, 0.2, 0.5]
        games = scenario_price_sweep(2, d_grid, 1e6, market)
        caps = [grand_allocation(g).C for g in games]
        vals = [coalition_value(g, g.players) for g in games]
        assert all(a >= b for a, b in zip(caps, caps[1:]))
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert caps[0] > caps[1]  # strictly falling while active

    def test_more_providers_bring_more_value(self, market):
        per_sp = 2.5e5
        values = {}
        for n in (2, 4):
            [game] = scenario_price_sweep(n, [market.d], n * per_sp, market)
            values[n] = coalition_value(game, game.players)
        assert values[4] > values[2]

    def test_beta_is_pinned_to_the_base_market(self, market):
        games = scenario_price_sweep(2, [0.01, 0.5], 1e6, market)
        price = amortized_unit_price(market)
        for game in games:
            assert all(sp.beta == price for sp in game.sps)
        assert games[0].market.d == 0.01
        assert games[1].market.d == 0.5

    def test_rejects_empty_grid(self, market):
        with pytest.raises(ValueError):
            scenario_price_sweep(2, [], 1e6, market)
        with pytest.raises(ValueError):
            scenario_price_sweep(0, [0.05], 1e6, market)

    @pytest.mark.parametrize("d", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_a_bad_price(self, market, d):
        # each instance's market is a copy of the base one, validated like a new one
        with pytest.raises(ValueError, match="^d must be"):
            scenario_price_sweep(2, [d], 1e6, market)


class TestRunSweep:
    def test_records_are_internally_consistent(self, market):
        games = [scenario_same_type(l, market) for l in (1e6, 3e6, 6e6)]
        records = run_sweep(games, scenario="same-type", sweep_param="l_total",
                            sweep_values=[1e6, 3e6, 6e6])
        assert [r.sweep_value for r in records] == [1e6, 3e6, 6e6]
        for rec in records:
            provider_rows = [p for p in rec.players if p.player_id != NO]
            assert math.fsum(p.h_star for p in provider_rows) == pytest.approx(
                rec.c_star, rel=1e-12
            )
            assert math.fsum(p.shapley for p in rec.players) == pytest.approx(
                rec.v_grand, rel=1e-9
            )
            bill = market.d * rec.c_star
            assert math.fsum(p.payment for p in rec.players) == pytest.approx(
                bill, rel=1e-6
            )
            for p in rec.players:
                assert p.payoff == pytest.approx(p.r_hat - p.payment, rel=1e-9)

    def test_value_is_monotone_in_load(self, market):
        grid = [1e6 * k for k in range(1, 8)]
        records = run_sweep(
            [scenario_same_type(l, market) for l in grid],
            scenario="same-type",
            sweep_param="l_total",
            sweep_values=grid,
        )
        vals = [r.v_grand for r in records]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_capacity_share_falls_with_skew(self, market):
        grid = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        records = run_sweep(
            [scenario_omega(w, 1e6, market) for w in grid],
            scenario="omega",
            sweep_param="omega",
            sweep_values=grid,
        )
        shares = []
        for rec in records:
            h1 = next(p.h_star for p in rec.players if p.player_id == "SP1")
            shares.append(h1 / rec.c_star if rec.c_star else 0.0)
        assert all(a >= b - 1e-12 for a, b in zip(shares, shares[1:]))
        assert shares[-1] == 0.0

    def test_zero_instance_gives_zero_record(self, market):
        [rec] = run_sweep([scenario_same_type(0.0, market)])
        assert rec.c_star == 0.0 and rec.v_grand == 0.0
        for p in rec.players:
            assert p.h_star == p.r_hat == p.shapley == p.payment == p.payoff == 0.0

    def test_methods_agree(self, rng, market):
        game = scenario_same_type(2e6, market)
        [closed] = run_sweep([game], method=ShapleyMethod.CLOSED_FORM)
        enum = shapley_enumeration(coalition_table(game)).payoffs
        [sampled] = run_sweep([game], method=ShapleyMethod.PERMUTATION_SAMPLING,
                              samples=50_000, seed=9)
        for pc, ps in zip(closed.players, sampled.players):
            assert pc.shapley == pytest.approx(enum[pc.player_id], rel=1e-9)
            assert ps.shapley == pytest.approx(pc.shapley, rel=0.05)
        [sampled_again] = run_sweep([game], method=ShapleyMethod.PERMUTATION_SAMPLING,
                                    samples=50_000, seed=9)
        assert [p.shapley for p in sampled_again.players] == [p.shapley for p in sampled.players]

    def test_input_validation(self, market):
        with pytest.raises(ValueError):
            run_sweep([])
        with pytest.raises(ValueError):
            run_sweep([scenario_same_type(1e6, market)], sweep_values=[1.0, 2.0])

    def test_errors_carry_the_instance_index(self, rng):
        games = [random_game(rng, n_sps=2), random_game(rng, n_sps=20)]
        with pytest.raises(RuntimeError, match=r"instance 0 \(index=0\.0\): samples must be >= 1"):
            run_sweep(games, method=ShapleyMethod.PERMUTATION_SAMPLING, samples=0,
                      sweep_values=[0.0, 1.0])
        # every instance samples with the one seed: out of range, the first
        # instance refuses it; at the top of the range, every instance takes it
        with pytest.raises(RuntimeError, match=r"instance 0 \(index=0\.0\): seed must lie"):
            run_sweep(games, method=ShapleyMethod.PERMUTATION_SAMPLING, samples=10,
                      seed=2**64, sweep_values=[0.0, 1.0])
        records = run_sweep(games, method=ShapleyMethod.PERMUTATION_SAMPLING, samples=10,
                            seed=2**64 - 1, sweep_values=[0.0, 1.0])
        for game, record in zip(games, records):
            expected = shapley_sampling(game, 10, 2**64 - 1).payoffs
            assert {p.player_id: p.shapley for p in record.players} == expected
