"""Up-front payment settlement: identities, signs, and error handling."""

import math
from functools import partial

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
    grand_allocation,
    optimal_allocation_single,
    scenario_price_sweep,
    settle,
    shapley_closed_form,
    shapley_enumeration,
    shapley_sampling,
)
import coinvest.shapley
from coinvest.shapley import AGREEMENT_TOL, SETTLE_TERMS_TOL, SETTLE_TOL, STABILITY_TOL

from conftest import golden_max_single, random_game, shapley_by_orderings


def test_settlement_identities(rng):
    for _ in range(20):
        game = random_game(rng)
        settlement = settle(game, shapley_closed_form(game).payoffs)
        bill = game.market.d * settlement.allocation.C
        paid = math.fsum(settlement.payment.values())
        assert abs(paid - bill) <= 1e-6 * max(1.0, abs(bill))
        for pid in game.players:
            identity = settlement.revenue[pid] - settlement.payment[pid]
            assert abs(settlement.payoff[pid] - identity) <= 1e-9 * max(1.0, abs(identity))


def test_owner_is_paid_half_the_value(rng):
    game = random_game(rng, n_sps=3)
    grand = coalition_value(game, game.players)
    settlement = settle(game, shapley_closed_form(game).payoffs)
    assert settlement.revenue[NO] == 0.0
    assert settlement.payment[NO] == pytest.approx(-grand / 2.0, rel=1e-9)


def test_single_provider_payment_formula(market):
    sp = ServiceProvider("A", 3.0 * amortized_unit_price(market), LoadProfile((1e6 / market.T,) * market.T))
    game = GameInstance(market, (sp,))
    h_star, m = optimal_allocation_single(sp, market)
    assert m > 0.0
    settlement = settle(game, shapley_closed_form(game).payoffs)
    assert settlement.payment["A"] == pytest.approx(m / 2.0 + market.d * h_star, rel=1e-9)
    assert settlement.payment["A"] > 0.0


def test_revenue_equals_profit_plus_capacity_cost(rng):
    game = random_game(rng, n_sps=2)
    optima = game.standalone_optima()
    alloc = grand_allocation(game)
    settlement = settle(game, shapley_closed_form(game).payoffs)
    for sp in game.sps:
        expected = optima[sp.id].value + game.market.d * alloc.h[sp.id]
        assert settlement.revenue[sp.id] == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_revenue_is_summed_once_per_beta_load_profile_and_h(monkeypatch, rng):
    # a price sweep's providers share all three, so their slots are summed
    # once; providers that differ in any one get their own sums
    sweep = scenario_price_sweep(1000, [0.05], 2e6)[0]
    shared = LoadProfile([1.0] * MarketParams().T)
    mixed = GameInstance(
        MarketParams(),
        (ServiceProvider("A", 2e-6, shared), ServiceProvider("B", 3e-6, shared),
         *random_game(rng, n_sps=3).sps),
    )
    real = coinvest.shapley.provider_revenue
    calls = []

    def counting(sp, market, h):
        calls.append(sp.id)
        return real(sp, market, h)

    for game, want_calls in ((sweep, 1), (mixed, 5)):
        h = grand_allocation(game).h
        want = {sp.id: real(sp, game.market, h[sp.id]).hex() for sp in game.sps}
        calls.clear()
        monkeypatch.setattr(coinvest.shapley, "provider_revenue", counting)
        settlement = settle(game, shapley_closed_form(game).payoffs)
        monkeypatch.undo()
        assert len(calls) == want_calls
        assert {pid: r.hex() for pid, r in settlement.revenue.items()} == {**want, NO: "0x0.0p+0"}


def test_zero_game_settles_to_zero(market):
    game = GameInstance(market, (ServiceProvider("A", 0.0, LoadProfile((1.0,) * market.T)),))
    settlement = settle(game, {"A": 0.0, NO: 0.0})
    assert settlement.revenue == {"A": 0.0, NO: 0.0}
    assert settlement.payment == {"A": 0.0, NO: 0.0}
    assert settlement.payoff == {"A": 0.0, NO: 0.0}


def test_rejects_inefficient_payoffs(rng):
    game = random_game(rng, n_sps=2)
    payoffs = dict(shapley_closed_form(game).payoffs)
    payoffs[NO] += 10.0 + coalition_value(game, game.players)
    with pytest.raises(ValueError):
        settle(game, payoffs)


def test_rejects_missing_players(rng):
    game = random_game(rng, n_sps=2)
    with pytest.raises(ValueError):
        settle(game, {NO: 0.0})


def test_missing_and_unknown_player_errors_stay_short(market):
    # 1000 providers with no payoff, and an id of 5000 characters
    wide = scenario_price_sweep(1000, [market.d], 1e6)[0]
    long_id = "L" * 5000
    load = LoadProfile([1.0] * market.T)
    narrow = GameInstance(market, (ServiceProvider(long_id, 1e-6, load),))
    for call, first in (
        (lambda: settle(wide, {}), "['SP1', "),
        (lambda: check_core_structural(wide, {}), "['SP1', "),
        (lambda: check_core(coalition_table(narrow), {NO: 0.0}), "['LLLL"),
        (lambda: coalition_value(wide, [NO, long_id]), "['LLLL"),
    ):
        with pytest.raises(ValueError) as raised:
            call()
        message = str(raised.value)
        assert len(message) < 200, len(message)
        assert first in message, message


_MARKET = MarketParams()
_PRICE = amortized_unit_price(_MARKET)

# benefit factors around the activation price, with null (zero factor) and
# idle (zero load) providers; at most 6 players, so every order is visited
_providers = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        st.one_of(st.just(0.0), st.floats(1e3, 2e6)),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=40)
@given(providers=_providers, samples=st.integers(1, 3000), seed=st.integers(0, 2**32))
def test_every_route_is_efficient_and_settles_the_bill(providers, samples, seed):
    T = _MARKET.T
    game = GameInstance(
        _MARKET,
        tuple(
            ServiceProvider(f"SP{k}", factor * _PRICE, LoadProfile([total / T] * T))
            for k, (factor, total) in enumerate(providers)
        ),
    )
    players = game.players
    grand = coalition_value(game, players)
    # the loop oracle: every arrival order telescopes to v(N)
    oracle = shapley_by_orderings(players, partial(coalition_value, game))
    rounding = len(players) * math.ulp(grand)
    noise = STABILITY_TOL * max(1.0, abs(grand))
    routes = {
        "closed": shapley_closed_form(game).payoffs,
        "enum": shapley_enumeration(coalition_table(game)).payoffs,
        "sample": shapley_sampling(game, samples, seed).payoffs,
    }
    assert abs(math.fsum(oracle.values()) - grand) <= noise
    # the capacity is the providers' standalone optima, found by the
    # derivative-free oracle
    capacity = math.fsum(golden_max_single(sp, _MARKET)[0] for sp in game.sps)
    for name, payoffs in routes.items():
        assert abs(math.fsum(payoffs.values()) - grand) <= noise, name
        if name != "sample":
            for pid in players:
                margin = AGREEMENT_TOL * max(1.0, abs(oracle[pid])) + rounding
                assert abs(payoffs[pid] - oracle[pid]) <= margin, (name, pid)
        settlement = settle(game, payoffs)
        C = settlement.allocation.C
        assert abs(C - capacity) <= 1e-6 * max(1.0, capacity) * len(game.sps), name
        bill = _MARKET.d * C
        paid = math.fsum(settlement.payment.values())
        terms = math.fsum(
            abs(settlement.revenue[pid]) + abs(settlement.payoff[pid]) for pid in players
        )
        assert abs(paid - bill) <= max(SETTLE_TOL * max(1.0, abs(bill)), SETTLE_TERMS_TOL * terms)
