"""Both builds of a coinvestment game's coalition table, the ndarray and the
tuple, against fsum, and the memory the exact layer and ``verify`` spend on
top of the ndarray build."""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coinvest.game
import coinvest.oracle
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
from coinvest.cli import _build_groups
from coinvest.config import load_preset, parse_config, preset_names
from coinvest.oracle import _exact_subset_sums, _fsum_subset_sums
from coinvest.scenarios import DEFAULT_D_GRID

from conftest import (
    TABLE_KINDS,
    bloated_game,
    coalitions_by_mask,
    invoke_cli,
    load_bench_module,
    random_game,
)

_MARKET = MarketParams()


def fsum_table(game):
    """Loop reference: ``coalition_value`` of every coalition, in bitmask order."""
    return [coalition_value(game, c) for c in coalitions_by_mask(game.players)]


def fsum_subset_sums(x):
    """Loop reference: ``fsum`` of ``x`` over every coalition, in bitmask order."""
    return [math.fsum(v for k, v in enumerate(x) if mask >> k & 1) for mask in range(1 << len(x))]


def assert_bit_identical(got, want):
    """``got``, a 1-D float64 ndarray or a tuple or list of floats, holds the
    floats of the list ``want``, bit for bit."""
    if isinstance(got, np.ndarray):
        assert got.shape == (len(want),) and got.dtype == np.float64
        got = got.tolist()
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in want]


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
    want = fsum_table(game)
    tables = [coalition_table(game, array) for array in TABLE_KINDS.values()]
    assert isinstance(tables[0].values, np.ndarray)
    assert type(tables[1].values) is tuple
    for table in tables:
        assert table.players == game.players
        assert_bit_identical(table.values, want)


# finite profits of every binary exponent a float has, subnormals included
_profits = st.one_of(
    st.just(0.0),
    st.floats(0.0, 2.0**-1022, allow_subnormal=True),
    st.builds(math.ldexp, st.floats(0.5, 1.0), st.integers(-1074, 1000)),
    st.floats(0.0, 1e6),
)


@settings(max_examples=300)
@given(x=st.lists(_profits, min_size=1, max_size=11))
def test_subset_sums_are_bit_identical_to_fsum(x):
    want = fsum_subset_sums(x)
    assert_bit_identical(_exact_subset_sums(x), want)
    assert_bit_identical(_fsum_subset_sums(x), want)


def test_rounding_tie_matches_fsum():
    # 1 + 2^-53 is a tie that rounds down; 2^-106 more tips it up
    x = [1.0, 2.0**-53, 2.0**-106]
    want = fsum_subset_sums(x)
    assert want[-1] == 1.0 + 2.0**-52
    assert_bit_identical(_fsum_subset_sums(x), want)
    assert_bit_identical(_exact_subset_sums(x), want)


def test_signed_sums_near_a_rounding_boundary_match_fsum():
    # profits of both signs and mixed magnitudes, with an entry whose exact
    # sum lies close to a rounding boundary: both builds round it as fsum does
    x = [
        -9007199254740991.0, -1.7347234759768069e-18, -9007199254740994.0,
        -1.0000000000000002, 7.999999999999999, 1.8014398509481982e16,
    ]
    want = fsum_subset_sums(x)
    assert_bit_identical(_fsum_subset_sums(x), want)
    assert_bit_identical(_exact_subset_sums(x), want)


def count_exact_builds(monkeypatch):
    """The term counts ``coinvest.oracle._exact_subset_sums`` is called with
    from now on, one entry per call, for the length of a test."""
    calls, build = [], coinvest.oracle._exact_subset_sums

    def counting(x):
        calls.append(len(x))
        return build(x)

    monkeypatch.setattr(coinvest.oracle, "_exact_subset_sums", counting)
    return calls


def test_shipped_and_bench_games_take_the_float_pass(monkeypatch):
    # their profits span far less than 2^50, so no lo addition of the ndarray
    # build loses bits and none falls back to the integer build
    workloads = load_bench_module(monkeypatch, "workloads")
    configs = [parse_config(load_preset(name)) for name in preset_names()]
    configs += [
        parse_config(json.dumps(workloads.custom_game(seed, n, 5000)))
        for seed in (0, 1)
        for n in (12, 17, 20)
    ]
    games = [game for cfg in configs for *_, group in _build_groups(cfg) for game in group]
    calls = count_exact_builds(monkeypatch)
    for game in games:
        coalition_table(game, array=True)
    assert calls == []


def test_wide_profits_fall_back_to_the_exact_build(monkeypatch):
    # twelve terms of both signs from 2^60 down to 2^-61: the carried errors
    # outgrow one float, so the ndarray build takes the integer build's sums
    x = [(-1) ** k * math.ldexp(1 + k / 13, 60 - 11 * k) for k in range(12)]
    want = fsum_subset_sums(x)
    calls = count_exact_builds(monkeypatch)
    got = _fsum_subset_sums(x)
    assert calls == [12]
    assert isinstance(got, np.ndarray)
    assert_bit_identical(got, want)


def test_the_fallback_build_holds_one_list_of_sums(monkeypatch):
    # sixteen positive terms spanning 2^75 take the fallback, whose peak is
    # the list of integer sums: ~44-byte ints and their pointers, about 7
    # times the table. Neither the float pass's arrays nor a list of floats
    # may sit beside it, so the build stays within 8 times the table
    x = [math.ldexp(1 + k / 17, 5 * k) for k in range(16)]
    calls = count_exact_builds(monkeypatch)
    got = _fsum_subset_sums(x)
    assert calls == [16]
    assert_bit_identical(got, fsum_subset_sums(x))
    peak = _traced_peak(lambda: _fsum_subset_sums(x))
    assert peak <= 8 * got.nbytes, peak / got.nbytes


def test_sums_past_the_float_range_overflow():
    # as fsum does; in the second input, hi stays finite and only hi + lo
    # overflows, since each small term is below half an ulp of the largest float
    big = sys.float_info.max
    small = math.ulp(big) * 3 / 8
    for x in ([big, big], [big, small, small]):
        for build in (_fsum_subset_sums, _exact_subset_sums):
            with pytest.raises(OverflowError):
                build(x)


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
    tables = [coalition_table(game, array) for array in TABLE_KINDS.values()]
    assert calls == []
    assert not tables[0].values.flags.writeable
    monkeypatch.undo()
    for table in tables:
        assert table.players == game.players
        assert_bit_identical(table.values, fsum_table(game))


def test_game_table_is_bounded_like_enumeration():
    for array in TABLE_KINDS.values():
        with pytest.raises(ValueError, match="enumeration bound"):
            coalition_table(bloated_game(), array)


def _traced_peak(step):
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_layer_memory_stays_near_the_table(rng):
    # the build keeps hi and lo (half the table each) and two reused scratch
    # rows (a quarter each); the checks on a built table allocate about one
    # table's worth of their own
    game = random_game(rng, n_sps=15)
    payoffs = shapley_closed_form(game).payoffs
    build = _traced_peak(lambda: coalition_table(game, array=True))
    table = coalition_table(game, array=True)
    size = table.values.nbytes
    core = _traced_peak(lambda: check_core(table, payoffs))
    enum = _traced_peak(lambda: shapley_enumeration(table))
    assert build <= 1.75 * size, build / size
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
    # verify of two by less than that only if no table outlives its instance.
    # Both are past verify's budget for tuple tables, so both build ndarrays,
    # as does the first call, which takes the imports and first-call caches
    _verify_peak(16, list(DEFAULT_D_GRID[:1]))
    two = _verify_peak(16, list(DEFAULT_D_GRID[:2]))
    eight = _verify_peak(16, list(DEFAULT_D_GRID[:8]))
    table = (1 << 17) * 8
    assert eight - two < table, (two, eight)
