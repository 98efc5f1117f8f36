"""Acceptance suite: one test per release criterion, with stated tolerances.

Each test prints a single pass line; failure of any assert fails the
criterion. Randomized instances are generated from fixed seeds so the whole
suite is reproducible. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from coinvest import (
    NO,
    MarketParams,
    check_core,
    check_supermodularity,
    coalition_value,
    grand_allocation,
    optimal_allocation_single,
    run_sweep,
    scenario_omega,
    scenario_price_sweep,
    scenario_same_type,
    shapley_closed_form,
    shapley_enumeration,
    shapley_sampling,
)
from coinvest.cli import main
from coinvest.scenarios import DEFAULT_D_GRID, DEFAULT_L_TOTAL_GRID, DEFAULT_OMEGA_GRID

from conftest import grid_max_joint, grid_max_single, random_game
from test_core_supermod import nonconvex_fixture


def rel_close(got, ref, tol):
    return abs(got - ref) <= tol * max(1.0, abs(ref))


def make_instances(count, seed, max_sps=7):
    rng = np.random.default_rng(seed)
    return [random_game(rng, n_sps=int(rng.integers(1, max_sps + 1))) for _ in range(count)]


def test_equal_split_between_owner_and_providers():
    """Criterion 1: the owner's Shapley payoff is half the grand value."""
    start = time.perf_counter()
    for game in make_instances(200, seed=101):
        payoffs = shapley_enumeration(game).payoffs
        grand = coalition_value(game, game.players)
        provider_total = math.fsum(v for p, v in payoffs.items() if p != NO)
        assert rel_close(payoffs[NO], grand / 2.0, 1e-9)
        assert rel_close(provider_total, grand / 2.0, 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1 (equal split, 200 instances): PASS ({elapsed:.2f}s)")


def test_shapley_oracle_triangle():
    """Criterion 2: enumeration, closed form and sampling agree."""
    start = time.perf_counter()
    instances = make_instances(200, seed=101)
    for game in instances:
        exact = shapley_enumeration(game).payoffs
        closed = shapley_closed_form(game).payoffs
        for pid in game.players:
            assert rel_close(closed[pid], exact[pid], 1e-9)
    for k, game in enumerate(instances[::8]):  # 25 sampled spot checks
        exact = shapley_enumeration(game).payoffs
        sampled = shapley_sampling(game, 100_000, seed=500 + k)
        for pid in game.players:
            margin = 3.0 * sampled.stderr[pid] + 1e-9 * max(1.0, abs(exact[pid]))
            assert abs(sampled.payoffs[pid] - exact[pid]) <= margin
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 2 (oracle triangle, 200 + 25 instances): PASS ({elapsed:.2f}s)")


def test_convexity_verified_and_fixture_rejected():
    """Criterion 3: supermodularity holds for generated games, fails for the fixture."""
    start = time.perf_counter()
    for game in make_instances(100, seed=202, max_sps=4):
        report = check_supermodularity(game)
        assert report.holds, report.counterexample
    bad = check_supermodularity(nonconvex_fixture())
    assert not bad.holds and bad.counterexample is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 3 (convexity, 100 instances + fixture): PASS ({elapsed:.2f}s)")


def test_shapley_payoffs_pass_the_core():
    """Criterion 4: exhaustive core check accepts the Shapley payoffs."""
    start = time.perf_counter()
    for game in make_instances(100, seed=303):
        result = check_core(game, shapley_enumeration(game).payoffs)
        assert result.in_core, result.violating_coalition
    elapsed = time.perf_counter() - start
    print(f"criterion 4 (core membership, 100 instances): PASS ({elapsed:.2f}s)")


def test_closed_form_matches_brute_force():
    """Criterion 5: grid searches reproduce the closed-form optima."""
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    market = MarketParams()
    for _ in range(50):
        game = random_game(rng, n_sps=1, market=market)
        sp = game.sps[0]
        h_cf, m_cf = optimal_allocation_single(sp, market)
        h_grid, m_grid, step = grid_max_single(sp, market, steps=1_000_000)
        assert abs(h_cf - h_grid) <= step * (1.0 + 1e-9)
        assert abs(m_cf - m_grid) <= 1e-6 * max(1.0, abs(m_cf))
    for _ in range(10):
        game = random_game(rng, n_sps=2, market=market)
        value = coalition_value(game, game.players)
        grid_best, gap_bound = grid_max_joint(game, steps=2000)
        assert grid_best <= value + 1e-9 * max(1.0, value)
        assert value - grid_best <= 2.0 * gap_bound + 1e-9
    elapsed = time.perf_counter() - start
    print(f"criterion 5 (brute-force agreement, 50 + 10 problems): PASS ({elapsed:.2f}s)")


def test_load_sweep_capacity_and_value_trends():
    """Criterion 6: capacity grows strictly but sublinearly; value is near-linear."""
    start = time.perf_counter()
    market = MarketParams()
    grid = list(DEFAULT_L_TOTAL_GRID)
    caps = []
    vals = []
    for l_total in grid:
        game = scenario_same_type(l_total, market)
        caps.append(grand_allocation(game).C)
        vals.append(coalition_value(game, game.players))
    assert all(b > a for a, b in zip(caps, caps[1:]))
    assert all(b > a for a, b in zip(vals, vals[1:]))
    doublings = [
        (i, grid.index(2.0 * l)) for i, l in enumerate(grid) if 2.0 * l in grid
    ]
    assert doublings
    for i, j in doublings:
        assert caps[j] < 2.0 * caps[i]
    x = np.asarray(grid)
    y = np.asarray(vals)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    r_squared = 1.0 - float(residuals @ residuals) / float(((y - y.mean()) ** 2).sum())
    assert r_squared >= 0.99
    elapsed = time.perf_counter() - start
    print(
        f"criterion 6 (load sweep: strict sublinear capacity, value R^2="
        f"{r_squared:.5f}): PASS ({elapsed:.2f}s)"
    )


def test_benefit_skew_trends():
    """Criterion 7: the first provider's capacity share shrinks to exactly zero."""
    start = time.perf_counter()
    market = MarketParams()
    shares = []
    for omega in DEFAULT_OMEGA_GRID:
        game = scenario_omega(omega, 1e6, market)
        alloc = grand_allocation(game)
        shares.append(alloc.h["SP1"] / alloc.C if alloc.C else 0.0)
        payoffs = shapley_closed_form(game).payoffs
        grand = coalition_value(game, game.players)
        assert rel_close(payoffs[NO], grand / 2.0, 1e-9)
    assert all(b <= a + 1e-12 for a, b in zip(shares, shares[1:]))
    assert shares[-1] == 0.0
    elapsed = time.perf_counter() - start
    print(f"criterion 7 (benefit skew: monotone share, owner at half): PASS ({elapsed:.2f}s)")


def test_price_sweep_trends():
    """Criterion 8: dearer capacity buys less; more providers are worth more."""
    start = time.perf_counter()
    market = MarketParams()
    per_provider_load = 2.5e5
    values_by_n = {}
    for n in (2, 4, 7):
        games = scenario_price_sweep(n, DEFAULT_D_GRID, n * per_provider_load, market)
        caps = [grand_allocation(g).C for g in games]
        vals = [coalition_value(g, g.players) for g in games]
        assert all(b <= a + 1e-12 for a, b in zip(caps, caps[1:]))
        assert all(b <= a + 1e-12 * max(1.0, a) for a, b in zip(vals, vals[1:]))
        values_by_n[n] = vals
    for i in range(len(DEFAULT_D_GRID)):
        assert values_by_n[4][i] >= values_by_n[2][i] - 1e-9
        assert values_by_n[7][i] >= values_by_n[4][i] - 1e-9
    elapsed = time.perf_counter() - start
    print(f"criterion 8 (price sweep trends for N=2,4,7): PASS ({elapsed:.2f}s)")


def test_settlement_identities_on_all_scenarios():
    """Criterion 9: payoffs equal revenue minus payment; payments cover the bill."""
    start = time.perf_counter()
    market = MarketParams()
    records = run_sweep(
        [scenario_same_type(l, market) for l in DEFAULT_L_TOTAL_GRID],
        scenario="same-type", sweep_param="l_total", sweep_values=DEFAULT_L_TOTAL_GRID,
    )
    records += run_sweep(
        [scenario_omega(w, 1e6, market) for w in DEFAULT_OMEGA_GRID],
        scenario="omega", sweep_param="omega", sweep_values=DEFAULT_OMEGA_GRID,
    )
    for n in (2, 4, 7):
        records += run_sweep(
            scenario_price_sweep(n, DEFAULT_D_GRID, 1e6, market),
            scenario=f"price-sweep-n{n}", sweep_param="d", sweep_values=DEFAULT_D_GRID,
        )
    d_by_scenario = {f"price-sweep-n{n}": None for n in (2, 4, 7)}
    for rec in records:
        d = rec.sweep_value if rec.scenario in d_by_scenario else market.d
        bill = d * rec.c_star
        paid = math.fsum(p.payment for p in rec.players)
        assert abs(paid - bill) <= 1e-6 * max(1.0, abs(bill))
        for p in rec.players:
            assert rel_close(p.payoff, p.r_hat - p.payment, 1e-9)
    elapsed = time.perf_counter() - start
    print(
        f"criterion 9 (settlement identities, {len(records)} records): PASS ({elapsed:.2f}s)"
    )


def test_cli_runs_are_deterministic(tmp_path):
    """Criterion 10: identical config and seed give byte-identical records.csv."""
    start = time.perf_counter()
    config = json.dumps({"l_total_grid": [1e6, 2e6, 4e6], "seed": 12})
    runner = CliRunner()
    paths = []
    for name in ("first", "second"):
        out = tmp_path / name
        result = runner.invoke(main, ["run", config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        paths.append(out / "records.csv")
    assert paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - start
    print(f"criterion 10 (deterministic CLI output): PASS ({elapsed:.2f}s)")
