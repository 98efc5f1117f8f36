"""The numpy build of a coinvestment game's coalition table against fsum,
and the memory the exact layer and ``verify`` spend on top of it."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinvest.game
from coinvest import (
    GameInstance,
    LoadProfile,
    MarketParams,
    ServiceProvider,
    check_core,
    coalition_table,
    coalition_value,
    shapley_closed_form,
    shapley_enumeration,
)
from coinvest.game import _fsum_subset_sums
from coinvest.scenarios import DEFAULT_D_GRID

from conftest import bloated_game, coalitions_by_mask, invoke_cli, random_game

_MARKET = MarketParams()


def fsum_table(game):
    """Loop reference: ``coalition_value`` of every coalition, in bitmask order."""
    return np.array([coalition_value(game, c) for c in coalitions_by_mask(game.players)])


def assert_bit_identical(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# log10 of beta and of the daily total; None draws a null (beta 0) or idle provider
_fresh = st.tuples(
    st.one_of(st.none(), st.floats(-12.0, 6.0)),
    st.one_of(st.none(), st.floats(0.0, 14.0)),
)


@st.composite
def games(draw):
    """1-10 providers with profits across many decades, some null, idle or repeated."""
    specs = []
    for _ in range(draw(st.integers(1, 10))):
        if specs and draw(st.booleans()):
            specs.append(specs[draw(st.integers(0, len(specs) - 1))])
            continue
        beta_exp, total_exp = draw(_fresh)
        beta = 0.0 if beta_exp is None else 10.0**beta_exp
        total = 0.0 if total_exp is None else 10.0**total_exp
        specs.append((beta, total))
    T = _MARKET.T
    return GameInstance(
        _MARKET,
        tuple(
            ServiceProvider(f"SP{k}", beta, LoadProfile([total / T] * T))
            for k, (beta, total) in enumerate(specs)
        ),
    )


@settings(max_examples=150)
@given(game=games())
def test_table_is_bit_identical_to_fsum(game):
    assert_bit_identical(coalition_table(game).values, fsum_table(game))


def test_rounding_tie_matches_fsum():
    # 1 + 2^-53 is a tie that rounds down; 2^-106 more tips it up
    x = [1.0, 2.0**-53, 2.0**-106]
    want = [math.fsum(v for k, v in enumerate(x) if mask >> k & 1) for mask in range(8)]
    assert want[-1] == 1.0 + 2.0**-52
    assert_bit_identical(_fsum_subset_sums(x), np.array(want))


def test_game_table_makes_no_value_calls(monkeypatch):
    calls = []

    def counting(game, coalition):
        calls.append(coalition)
        return coalition_value(game, coalition)

    monkeypatch.setattr(coinvest.game, "coalition_value", counting)
    T = _MARKET.T
    game = GameInstance(
        _MARKET,
        tuple(
            ServiceProvider(f"SP{k}", 2e-6 * (k + 1), LoadProfile([1e6 / T] * T))
            for k in range(6)
        ),
    )
    table = coalition_table(game)
    assert calls == []
    assert table.players == game.players
    assert not table.values.flags.writeable
    monkeypatch.undo()
    assert_bit_identical(table.values, fsum_table(game))


def test_game_table_is_bounded_like_enumeration():
    with pytest.raises(ValueError, match="enumeration bound"):
        coalition_table(bloated_game())


def _traced_peak(step):
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_layer_memory_stays_near_the_table(rng):
    # the build keeps hi, lo and slack (half the table each) and two reused
    # scratch rows (a quarter each); the checks on a built table allocate
    # about one table's worth of their own
    game = random_game(rng, n_sps=15)
    payoffs = shapley_closed_form(game).payoffs
    build = _traced_peak(lambda: coalition_table(game))
    table = coalition_table(game)
    size = table.values.nbytes
    core = _traced_peak(lambda: check_core(table, payoffs))
    enum = _traced_peak(lambda: shapley_enumeration(table))
    assert build <= 2.5 * size, build / size
    assert core <= 1.25 * size, core / size
    assert enum <= 1.5 * size, enum / size


def _verify_peak(n_sps, prices):
    config = json.dumps(
        {"scenario": "price-sweep", "n_sps": [n_sps], "d_grid": prices, "samples": 200}
    )
    tracemalloc.start()
    try:
        result = invoke_cli(["verify", config])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    return peak


def test_verify_holds_one_table_at_a_time():
    # a 17-player table is 1 MiB: verify of eight instances may peak above
    # verify of two by less than that only if no table outlives its instance
    _verify_peak(2, list(DEFAULT_D_GRID[:2]))  # imports and first-call caches
    two = _verify_peak(16, list(DEFAULT_D_GRID[:2]))
    eight = _verify_peak(16, list(DEFAULT_D_GRID[:8]))
    table = (1 << 17) * 8
    assert eight - two < table, (two, eight)
