"""The numpy build of a coinvestment game's coalition table against fsum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinvest.game
from coinvest import GameInstance, LoadProfile, MarketParams, ServiceProvider, coalition_value
from coinvest.game import _fsum_subset_sums

from conftest import bloated_game, coalitions_by_mask

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
    assert_bit_identical(game.coalition_table(), fsum_table(game))


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
    table = game.coalition_table()
    assert calls == []
    assert not table.flags.writeable
    assert game.coalition_table() is table
    monkeypatch.undo()
    assert_bit_identical(table, fsum_table(game))


def test_game_table_is_bounded_like_enumeration():
    with pytest.raises(ValueError, match="enumeration bound"):
        bloated_game().coalition_table()
