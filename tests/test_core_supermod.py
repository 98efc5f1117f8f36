"""Core membership, supermodularity, and player classification checks."""

import pytest

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import coinvest.oracle
from coinvest import (
    NO,
    GameInstance,
    LoadProfile,
    MarketParams,
    ServiceProvider,
    check_core,
    check_core_structural,
    check_supermodularity,
    check_supermodularity_structural,
    classify_players,
    classify_players_structural,
    coalition_table,
    coalition_value,
    run_sweep,
    shapley_closed_form,
    shapley_enumeration,
)
from coinvest.checks import verify_checks
from coinvest.shapley import AGREEMENT_TOL, STABILITY_TOL, SupermodularityReport

from conftest import (
    TABLE_KINDS,
    TabularGame,
    bloated_game,
    classification_scan,
    coalitions_by_mask,
    core_scan,
    heterogeneous_game,
    marginal_contribution,
    pair_scan,
    random_game,
    supermodularity_scan,
    veto_table_game,
    worth,
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


def both_tables(game):
    """The ndarray table and the tuple table of a ``TabularGame`` or a ``GameInstance``."""
    if isinstance(game, TabularGame):
        return [game.table(array) for array in TABLE_KINDS.values()]
    return [coalition_table(game, array) for array in TABLE_KINDS.values()]


def assert_enumerations_agree(tables):
    """Enumeration on each table kind gives payoffs within the oracle triangle's
    margin of each other: AGREEMENT_TOL relative, plus n ulps of v(N)."""
    first, *rest = (shapley_enumeration(table).payoffs for table in tables)
    players, values = tables[0]
    rounding = len(players) * math.ulp(float(values[-1]))
    for other in rest:
        for pid in players:
            margin = AGREEMENT_TOL * max(1.0, abs(first[pid])) + rounding
            assert abs(other[pid] - first[pid]) <= margin, pid
    return first


class TestCore:
    def test_shapley_payoffs_are_in_the_core(self, rng):
        for _ in range(30):
            table = coalition_table(random_game(rng))
            result = check_core(table, shapley_enumeration(table).payoffs)
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
        result = check_core(coalition_table(game), payoffs)
        assert not result.in_core
        blocked = result.violating_coalition
        assert blocked is not None
        inside = sum(payoffs[p] for p in blocked)
        assert coalition_value(game, blocked) > inside

    def test_zero_game_zero_vector(self, market):
        game = GameInstance(market, (ServiceProvider("A", 0.0, LoadProfile((1.0,) * market.T)),))
        assert check_core(coalition_table(game), {"A": 0.0, NO: 0.0}).in_core

    def test_efficiency_is_required(self, rng):
        game = random_game(rng, n_sps=2)
        payoffs = dict(shapley_closed_form(game).payoffs)
        payoffs[NO] += 1.0  # over-distributes: rational everywhere but inefficient
        result = check_core(coalition_table(game), payoffs)
        assert not result.in_core
        assert result.violating_coalition is None

    def test_missing_player_rejected(self, rng):
        game = random_game(rng, n_sps=2)
        with pytest.raises(ValueError):
            check_core(coalition_table(game), {"SP1": 0.0, NO: 0.0})

    def test_slack_map(self, rng):
        # payoff minus value: zero on the empty and the grand coalition, never negative
        game = random_game(rng, n_sps=2)
        payoffs = shapley_closed_form(game).payoffs
        assert check_core(coalition_table(game), payoffs).in_core
        slack = {
            c: math.fsum(payoffs[p] for p in c) - v
            for c, v in zip(coalitions_by_mask(game.players), coalition_table(game).values)
        }
        assert slack[frozenset()] == 0.0
        assert len(slack) == 2 ** len(game.players)
        assert all(gap >= -1e-9 for gap in slack.values())
        assert slack[frozenset(game.players)] == pytest.approx(0.0, abs=1e-9)

    def test_player_bound(self):
        bloated = bloated_game()
        with pytest.raises(ValueError, match="enumeration bound"):
            check_core(coalition_table(bloated), {p: 0.0 for p in bloated.players})

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
        assert check_core(coalition_table(game), payoffs).in_core

    def test_relative_violation_is_blocked(self):
        game = heterogeneous_game()
        payoffs = dict(shapley_closed_form(game).payoffs)
        grand = coalition_value(game, game.players)
        moved = payoffs["SP01"] + 1e-6 * grand
        payoffs["SP01"] -= moved
        payoffs[NO] += moved
        result = check_core(coalition_table(game), payoffs)
        assert not result.in_core
        assert result.violating_coalition == frozenset({"SP01"})


class TestSupermodularity:
    def test_holds_on_random_instances(self, rng):
        for _ in range(30):
            game = random_game(rng, n_sps=int(rng.integers(1, 5)))
            report = check_supermodularity(coalition_table(game))
            assert report.holds, report.counterexample

    def test_rejects_nonconvex_fixture(self):
        game = nonconvex_fixture()
        report, listed = (check_supermodularity(table) for table in both_tables(game))
        assert listed == report
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
        assert check_supermodularity(coalition_table(game)).holds

    def test_hand_built_veto_game_holds(self):
        assert check_supermodularity(veto_table_game({"SP1": 3.0, "SP2": 1.0}).table()).holds

    def test_tolerance_scales_with_grand_value(self):
        # at v(N) ~ 2e12 a shortfall of 1 is rounding, one of 1e4 is not
        for shortfall, holds in ((1.0, True), (1e4, False)):
            values = {("A",): 1e12, ("B",): 1e12, ("A", "B"): 2e12 - shortfall}
            report = check_supermodularity(TabularGame(("A", "B"), values).table())
            assert report.holds is holds

    def test_player_bound(self):
        with pytest.raises(ValueError, match="enumeration bound"):
            check_supermodularity(coalition_table(bloated_game()))

    def test_accepts_thirteen_players(self):
        game = TabularGame(tuple(f"P{i}" for i in range(13)), {}, default=0.0)
        assert check_supermodularity(game.table()).holds


def perturbed_veto_games(count=120, seed=31):
    """Veto games whose coalitions with the veto player are nudged.

    Each starts from :func:`veto_table_game` (2-7 players) with the veto player
    moved to a random position. Then it shifts a few coalitions holding it by
    a scale from rounding noise to a real violation, adds |T|^2 (convex, but
    not additive), subtracts c |T|^2 with 2c a share of the noise either side
    of it (concave, so each second difference is -2c), puts a NaN or an
    infinity in one entry, or is left as it is.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        providers = [f"SP{i}" for i in range(int(rng.integers(1, 7)))]
        profits = rng.uniform(0.0, 10.0, size=len(providers)) * (rng.random(len(providers)) < 0.8)
        base = veto_table_game(dict(zip(providers, profits.tolist())))
        players = list(base.players)
        players.insert(int(rng.integers(0, len(players))), players.pop())
        values = {c: base.value(c) for c in coalitions_by_mask(players)}
        holding = [c for c in values if NO in c]
        kind = k % 5
        if kind == 0:  # nudged by a scale from below the noise to above it
            scale = float(rng.choice([1e-13, 1e-10, 1e-8, 1e-3, 1.0]))
            for pick in rng.choice(len(holding), size=min(3, len(holding)), replace=False):
                values[holding[pick]] += scale * float(rng.uniform(-1.0, 1.0))
        elif kind == 1:
            for c in holding:
                values[c] += float(len(c) - 1) ** 2
        elif kind == 2:
            c = holding[int(rng.integers(0, len(holding)))]
            values[c] = float(rng.choice([math.nan, math.inf, -math.inf]))
        elif kind == 3:
            noise = STABILITY_TOL * max(1.0, values[frozenset(players)])
            share = float(rng.choice([0.4, 0.9, 1.1, 1.6]))
            for c in holding:
                values[c] -= share * noise / 2.0 * float(len(c) - 1) ** 2
        yield TabularGame(players, values, default=None)


def certificate_games():
    """Tables for the supermodularity certificate: perturbed veto games, the
    oracle fixtures, and edge cases without a veto player or with few players."""
    yield from perturbed_veto_games()
    yield from oracle_games()
    for n in range(1, 6):
        yield TabularGame([f"P{i}" for i in range(n)], {}, default=0.0)
    yield TabularGame(["A"], {(): 1.0, ("A",): 3.0})  # no veto player
    yield TabularGame(["A"], {("A",): -3.0})
    yield TabularGame(["A", "B"], {("A",): 1.0, ("B",): 1.0, ("A", "B"): 1.0})
    yield TabularGame(["A", "B"], {("A",): 1.0, ("A", "B"): 0.5})  # A is veto
    yield TabularGame(["A", "B"], {("B",): 1.0, ("A", "B"): 4.0})  # B is veto
    yield TabularGame(["A", "B", "C"], {("A",): 1.0, ("A", "B", "C"): 1.0})


def count_pair_scans(monkeypatch):
    """The tables ``coinvest.oracle._pair_scan`` is called on from now on, one
    entry per call, for the length of a test."""
    scans, scan = [], coinvest.oracle._pair_scan

    def counting(table, noise):
        scans.append(table)
        return scan(table, noise)

    monkeypatch.setattr(coinvest.oracle, "_pair_scan", counting)
    return scans


class TestSupermodularityCertificate:
    def test_verdicts_and_counterexamples_match_the_pair_scan(self, monkeypatch):
        # check_supermodularity returns 'holds' off its certificate, or else
        # scans the pairs: either way it reports what the loop oracle finds
        # first, on both table kinds
        scans = count_pair_scans(monkeypatch)
        paths = set()
        for game in certificate_games():
            expected = pair_scan(game)
            for table in both_tables(game):
                before = len(scans)
                assert check_supermodularity(table) == SupermodularityReport(
                    expected is None, expected
                ), (game.players, table.values)
                paths.add((len(scans) == before, expected is None))
        # some tables are proven; the others fall back to the scan, which
        # finds some supermodular and some not; none is proven and fails
        assert paths == {(True, True), (False, True), (False, False)}

    def test_certifies_coinvestment_games(self, rng, monkeypatch):
        scans = count_pair_scans(monkeypatch)
        for _ in range(10):
            game = random_game(rng)
            for table in both_tables(game):
                assert check_supermodularity(table).holds
        assert scans == []

    def test_enumeration_alone_never_scans_pairs(self, monkeypatch):
        # v(S) = (sum of w over S)^2 is convex but has no veto player, so the
        # certificate proves nothing: only a supermodularity verdict scans
        scans = count_pair_scans(monkeypatch)
        w = [1.0 + 0.37 * k for k in range(12)]
        players = tuple(f"P{k}" for k in range(12))
        game = TabularGame(
            players,
            {c: math.fsum(w[players.index(p)] for p in c) ** 2 for c in coalitions_by_mask(players)},
            default=None,
        )
        for table in both_tables(game):
            scans.clear()
            shapley_enumeration(table)
            assert scans == []
            assert check_supermodularity(table).holds
            assert len(scans) == 1 and scans[0] is table


class TestClassification:
    def test_owner_is_veto(self, rng):
        game = random_game(rng, n_sps=3)
        flags = classify_players(coalition_table(game))
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
        flags = classify_players(coalition_table(game))
        assert flags["B"].null and not flags["B"].veto
        # A is productive but not essential: the game thrives without it via C
        assert not flags["A"].null and not flags["A"].veto
        assert flags[NO].veto and not flags[NO].null

    def test_degenerate_game_flags_owner_both_ways(self, market):
        game = GameInstance(market, (ServiceProvider("A", 0.0, LoadProfile((1.0,) * market.T)),))
        flags = classify_players(coalition_table(game))
        assert flags[NO].veto and flags[NO].null
        assert flags["A"].veto and flags["A"].null


class TestLoopOracles:
    def test_core_matches_scan(self):
        rng = np.random.default_rng(11)
        verdicts = set()
        for game in oracle_games():
            players = game.players
            grand = worth(game, frozenset(players))
            guess = dict(zip(players, rng.integers(-2, 6, size=len(players)).astype(float)))
            guess[players[-1]] += grand - sum(guess.values())
            tables = both_tables(game)
            for payoffs in (assert_enumerations_agree(tables), guess):
                expected = core_scan(game, payoffs)
                for table in tables:
                    result = check_core(table, payoffs)
                    assert (result.in_core, result.violating_coalition) == expected
                verdicts.add(result.in_core)
        assert verdicts == {True, False}

    def test_supermodularity_matches_scan(self):
        verdicts = set()
        for game in oracle_games():
            report, listed = (check_supermodularity(table) for table in both_tables(game))
            assert listed == report
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
            for table in both_tables(game):
                assert classify_players(table) == classification_scan(game)

    def test_one_table_serves_every_check(self, monkeypatch, rng):
        builds = []
        for name in ("_fsum_subset_sums", "_exact_subset_sums"):
            build = getattr(coinvest.oracle, name)

            def counting(x, name=name, build=build):
                builds.append((name, len(x)))
                return build(x)

            monkeypatch.setattr(coinvest.oracle, name, counting)
        # within the bound verify's brute force and oracles read one table, of
        # the kind asked for; past it no table is built, and the sampler alone
        # checks the closed form
        for game in (random_game(rng, n_sps=3), bloated_game()):
            [record] = run_sweep([game])
            for array, name in ((True, "_fsum_subset_sums"), (False, "_exact_subset_sums")):
                builds.clear()
                checks = verify_checks(game, record, samples=200, seed=0, array=array)
                want = [(name, 3)] if len(game.sps) == 3 else []
                assert builds == want
                assert checks["oracle_triangle"].verdict == "pass"

    def test_one_veto_split_serves_supermodularity_and_enumeration(self, monkeypatch, rng):
        # verify finds the veto half once per instance and forms each gain
        # vector once, for the certificate and for enumeration alike
        scans = count_pair_scans(monkeypatch)
        splits, veto_half = [], coinvest.oracle._veto_half

        def counting(table):
            splits.append(len(table.players))
            return veto_half(table)

        monkeypatch.setattr(coinvest.oracle, "_veto_half", counting)
        games = [random_game(rng, n_sps=n) for n in (1, 3, 6)]
        for array in TABLE_KINDS.values():
            splits.clear()
            for game, record in zip(games, run_sweep(games)):
                checks = verify_checks(game, record, samples=200, seed=0, array=array)
                assert {o.verdict for o in checks.values()} == {"pass"}
            assert splits == [2, 4, 7]
        assert scans == []


# one timeslot a day; a provider with beta * L above d / (D * xi) is active
_ONE_SLOT = MarketParams(T=1)
_THRESHOLD = _ONE_SLOT.d / (_ONE_SLOT.D * _ONE_SLOT.xi)


@st.composite
def profit_games(draw):
    """A game of 1-5 providers, each active, idle (positive rate and load
    below the activation threshold) or null (no rate or no load). Active
    providers' gains D*xi*beta*L/d scale together, putting their profits
    anywhere from ~1e-5 to ~1e150."""
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e12, 1e150]))
    sps = []
    for k in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["active", "active", "idle", "no-rate", "no-load"]))
        if kind == "active":
            beta, gain = 1.0, 1.0 + scale * draw(st.floats(0.5, 2.0))
        elif kind == "idle":
            beta, gain = 1.0, draw(st.floats(0.01, 1.0))
        else:
            beta, gain = (0.0, 1.0) if kind == "no-rate" else (1.0, 0.0)
        load = LoadProfile((gain * _THRESHOLD,))
        sps.append(ServiceProvider(f"SP{k}", beta, load))
    return GameInstance(_ONE_SLOT, tuple(sps))


@st.composite
def payoff_cases(draw):
    """(game, payoffs, kind): Shapley payoffs, a point inside the core, one
    outside it by 1e-8 to 1 of max(1, v(N)) with efficiency kept, or an
    inefficient one that misses v(N) by that much."""
    game = draw(profit_games())
    optima = game.standalone_optima()
    profits = {sp.id: optima[sp.id].value for sp in game.sps}
    grand = math.fsum(profits.values())
    kind = draw(st.sampled_from(["shapley", "inside", "below-0", "above-m", "inefficient"]))
    if kind == "shapley":
        return game, dict(shapley_closed_form(game).payoffs), kind
    share = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    x = {pid: draw(share) * m for pid, m in profits.items()}
    x[NO] = grand - math.fsum(x.values())
    delta = draw(st.sampled_from([1e-8, 1e-6, 1e-3, 1.0])) * max(1.0, grand)
    pid = draw(st.sampled_from(sorted(profits)))
    if kind == "below-0":  # {pid} blocks
        x[NO] += x[pid] + delta
        x[pid] = -delta
    elif kind == "above-m":  # everyone but pid blocks
        x[NO] -= profits[pid] + delta - x[pid]
        x[pid] = profits[pid] + delta
    elif kind == "inefficient":
        x[NO] += draw(st.sampled_from([delta, -delta]))
    return game, x, kind


@given(payoff_cases())
def test_structural_brute_force_and_loop_verdicts_agree(case):
    game, payoffs, kind = case
    noise = STABILITY_TOL * max(1.0, coalition_value(game, game.players))

    structural = check_core_structural(game, payoffs)
    tables = both_tables(game)
    brute, listed = (check_core(table, payoffs) for table in tables)
    assert listed == brute
    assert structural.in_core == brute.in_core == core_scan(game, payoffs)[0]
    assert structural.in_core is (kind in ("shapley", "inside"))
    blocking = structural.violating_coalition
    assert (blocking is None) == (brute.violating_coalition is None)
    if blocking is not None:
        paid = math.fsum(payoffs[p] for p in blocking)
        assert paid - coalition_value(game, blocking) < -noise

    assert check_supermodularity_structural(game).holds
    for table in tables:
        assert check_supermodularity(table).holds
    assert supermodularity_scan(game, tol=noise)

    flags = classify_players_structural(game)
    assert flags == classification_scan(game)
    for table in tables:
        assert classify_players(table) == flags


class ProfitsOnly:
    """Stands in for a GameInstance with the given standalone profits, which
    may be negative, as no GameInstance's can."""

    def __init__(self, profits):
        self.sps = tuple(SimpleNamespace(id=pid) for pid in profits)
        self.players = tuple(profits) + (NO,)
        self.profits = tuple(profits.values())
        self.v_grand = math.fsum(self.profits)


def test_structural_checks_match_brute_force_on_negative_profits():
    profits = {"SP1": 3.0, "SP2": -1.0, "SP3": 0.0, "SP4": -2.0}
    stand_in, tabular = ProfitsOnly(profits), veto_table_game(profits)
    tables = both_tables(tabular)
    report = check_supermodularity_structural(stand_in)
    assert not report.holds
    assert report.counterexample == (NO, frozenset(), frozenset({"SP2"}))
    for table in tables:
        assert report == check_supermodularity(table)
        assert classify_players_structural(stand_in) == classify_players(table)
    for payoffs in (
        {"SP1": 1.0, "SP2": -1.0, "SP3": 0.0, "SP4": -2.0, NO: 2.0},
        {"SP1": 3.0, "SP2": -1.0, "SP3": 0.0, "SP4": -2.0, NO: 0.0},
        {"SP1": 4.0, "SP2": 0.0, "SP3": 0.0, "SP4": -2.0, NO: -2.0},
    ):
        structural = check_core_structural(stand_in, payoffs)
        brute, listed = (check_core(table, payoffs) for table in tables)
        assert listed == brute
        assert structural.in_core == brute.in_core
        if structural.violating_coalition is not None:
            worth = tabular.value(structural.violating_coalition)
            assert math.fsum(payoffs[p] for p in structural.violating_coalition) < worth


def test_structural_core_names_the_weakest_coalition():
    game = heterogeneous_game()
    payoffs = dict(shapley_closed_form(game).payoffs)
    grand = coalition_value(game, game.players)
    # SP01 keeps a little of its share, SP02 is pushed below zero: the owner's
    # side is fine, {SP02} alone blocks by 1e-6 * v(N)
    moved = payoffs["SP02"] + 1e-6 * grand
    payoffs["SP02"] -= moved
    payoffs[NO] += moved
    result = check_core_structural(game, payoffs)
    assert not result.in_core
    assert result.violating_coalition == frozenset({"SP02"})
    assert check_core(coalition_table(game), payoffs).violating_coalition == frozenset({"SP02"})
