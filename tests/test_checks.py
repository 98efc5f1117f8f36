"""The property suite's outcome records and its one table of properties."""

import pytest

from coinvest import run_sweep
from coinvest.checks import (
    FAIL,
    PASS,
    PROPERTIES,
    RUN_METHODS,
    Outcome,
    run_checks,
    verify_checks,
)
from coinvest.game import MAX_ENUMERATION_PLAYERS

from conftest import TABLE_KINDS, random_game


@pytest.mark.parametrize(
    "outcome, text",
    [
        (Outcome(PASS), "pass"),
        (Outcome(FAIL, "blocked by efficiency"), "fail: blocked by efficiency"),
        (
            Outcome(PASS, "enumeration leg skipped (21 players exceeds the enumeration bound)"),
            "pass: enumeration leg skipped (21 players exceeds the enumeration bound)",
        ),
    ],
)
def test_an_outcome_reads_as_summary_json_writes_it(outcome, text):
    assert str(outcome) == text
    # run's stderr formats outcomes into f-strings
    assert f"{outcome}" == text


def test_the_table_gives_verify_lines_and_run_methods():
    assert [line for _, line, _ in PROPERTIES if line] == [
        "supermodularity", "core-membership", "oracle-triangle", "settlement-balance",
    ]
    assert RUN_METHODS == {
        "core": "structural",
        "supermodularity": "structural",
        "flags": "structural",
        "settlement_balance": "direct",
    }


@pytest.mark.parametrize("n_players", [2, 8, MAX_ENUMERATION_PLAYERS + 1])
def test_checks_of_a_solved_instance(rng, n_players):
    game = random_game(rng, n_sps=n_players - 1)
    [record] = run_sweep([game])
    checks = run_checks(game, record)
    # run reports failures in this order
    assert list(checks) == ["core", "supermodularity", "settlement_balance"]
    assert set(checks.values()) == {Outcome(PASS)}
    for array in TABLE_KINDS.values():
        checks = verify_checks(game, record, samples=2000, seed=3, array=array)
        assert list(checks) == [
            "core", "supermodularity", "settlement_balance", "oracle_triangle",
        ]
        triangle = checks.pop("oracle_triangle")
        assert set(checks.values()) == {Outcome(PASS)}
        if n_players > MAX_ENUMERATION_PLAYERS:
            assert triangle == Outcome(
                PASS, f"enumeration leg skipped ({n_players} players exceeds the enumeration bound)"
            )
        else:
            assert triangle == Outcome(PASS)
