"""The property suite ``run`` and ``verify`` apply to every solved instance.

The game is convex, so the Shapley payoffs lie in the core (Shapley 1971,
"Cores of convex games"), and they settle the capacity bill d·C. Every check
returns an :class:`Outcome`; :data:`PROPERTIES` names the checks, their
``verify`` lines and how ``run`` decides each one. ``run`` decides them
structurally. ``verify`` also holds them against the brute force of
:mod:`coinvest.oracle`, which it imports only for an instance within the
enumeration bound, and the closed-form payoffs against the sampler of
:mod:`coinvest.sampling`, so that neither loads for a ``run``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .game import MAX_ENUMERATION_PLAYERS, GameInstance, PayoffVector
from .scenarios import SweepRecord
from .shapley import (
    AGREEMENT_TOL,
    SAMPLING_SIGMAS,
    SETTLE_TERMS_TOL,
    SETTLE_TOL,
    check_core_structural,
    check_supermodularity_structural,
)

PASS, FAIL = "pass", "fail"

#: Each property's summary.json key, ``verify`` line and the method ``run``
#: decides it by, the ``verify`` lines in print order. ``run`` leaves the oracle
#: triangle to ``verify``; the player flags are no check, but have a method.
PROPERTIES = (
    ("supermodularity", "supermodularity", "structural"),
    ("core", "core-membership", "structural"),
    ("oracle_triangle", "oracle-triangle", None),
    ("settlement_balance", "settlement-balance", "direct"),
    ("flags", None, "structural"),
)
RUN_METHODS = {key: method for key, _, method in PROPERTIES if method}  # check_methods


class Outcome(NamedTuple):
    """One check's verdict on one instance (``pass`` or ``fail``) and, for a
    failure, why, or for a pass, what it left out. Its string is the verdict,
    followed by ``: <detail>`` if there is one."""

    verdict: str
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.verdict}: {self.detail}" if self.detail else self.verdict


def run_checks(game: GameInstance, record: SweepRecord) -> dict[str, Outcome]:
    """The core, supermodularity and settlement checks ``run`` writes to
    summary.json, of the record's payoffs."""
    payoffs = {p.player_id: p.payoff for p in record.players}
    return {
        "core": _core(check_core_structural(game, payoffs)),
        "supermodularity": _supermodularity(check_supermodularity_structural(game)),
        "settlement_balance": _settlement(game, record),
    }


def verify_checks(game, record, samples: int, seed: int, array: bool) -> dict[str, Outcome]:
    """``run``'s checks plus the oracle triangle, which holds the record's
    closed-form ``shapley`` column against enumeration and the sampler. Within
    the enumeration bound, the core and supermodularity are also decided by
    brute force over all 2^n coalitions, and fail unless both verdicts agree;
    beyond it the triangle's enumeration leg is skipped, and a pass says so.
    Their one coalition table, built as an ndarray if ``array`` and as a tuple
    otherwise, is dropped on return."""
    checks = run_checks(game, record)
    closed = {p.player_id: p.shapley for p in record.players}
    n = len(game.players)
    if n > MAX_ENUMERATION_PLAYERS:
        # the closed form stands in for enumeration, so only the sampler is held against it
        triangle = _oracles(game, closed, closed, samples, seed)
        if triangle.verdict == PASS:
            triangle = Outcome(
                PASS, f"enumeration leg skipped ({n} players exceeds the enumeration bound)"
            )
        checks["oracle_triangle"] = triangle
        return checks
    from . import oracle  # here, so that run, and verify past the bound, never compile it

    payoffs = {p.player_id: p.payoff for p in record.players}
    table = oracle.coalition_table(game, array)
    convex, exact = oracle.supermodularity_and_enumeration(table)
    for name, brute_force in (
        ("core", _core(oracle.check_core(table, payoffs))),
        ("supermodularity", _supermodularity(convex)),
    ):
        structural = checks[name]
        if (structural.verdict == PASS) != (brute_force.verdict == PASS):
            brute_force = Outcome(
                FAIL, f"structural verdict '{structural}' but brute-force verdict '{brute_force}'"
            )
        checks[name] = brute_force
    checks["oracle_triangle"] = _oracles(game, closed, exact.payoffs, samples, seed)
    return checks


def _core(core) -> Outcome:
    if core.in_core:
        return Outcome(PASS)
    where = sorted(core.violating_coalition) if core.violating_coalition else "efficiency"
    return Outcome(FAIL, f"blocked by {where}")


def _supermodularity(report) -> Outcome:
    if report.holds:
        return Outcome(PASS)
    pid, small, large = report.counterexample
    return Outcome(
        FAIL, f"player {pid} contributes less to {sorted(large)} than to {sorted(small)}"
    )


def _settlement(game: GameInstance, record: SweepRecord) -> Outcome:
    bill = game.market.d * record.c_star
    paid = math.fsum(p.payment for p in record.players)
    broken = [
        p.player_id for p in record.players
        if abs(p.payoff - (p.r_hat - p.payment)) / max(1.0, abs(p.r_hat - p.payment))
        > AGREEMENT_TOL
    ]
    # each payment is revenue - payoff, so the sum carries their rounding too
    terms = math.fsum(abs(p.r_hat) + abs(p.payoff) for p in record.players)
    if abs(paid - bill) > max(SETTLE_TOL * max(1.0, abs(bill)), SETTLE_TERMS_TOL * terms):
        return Outcome(FAIL, f"payments sum to {paid!r}, capacity bill is {bill!r}")
    if broken:
        return Outcome(FAIL, f"payoff is not revenue minus payment for {broken}")
    return Outcome(PASS)


def _oracles(game: GameInstance, closed: PayoffVector, exact: PayoffVector, samples: int,
             seed: int) -> Outcome:
    """Agreement of the three Shapley routes on one instance, given its
    closed-form and enumeration payoffs."""
    from . import sampling

    # enumeration reads each marginal off two correctly rounded table entries,
    # each within half an ulp of v(N), so its payoffs may miss by about one ulp
    # of v(N) whatever their own size; n of them bound that
    rounding = len(game.players) * math.ulp(game.v_grand)
    margin = {pid: AGREEMENT_TOL * max(1.0, abs(exact[pid])) + rounding for pid in game.players}
    for pid in game.players:
        if abs(closed[pid] - exact[pid]) > margin[pid]:
            return Outcome(FAIL, f"closed form vs enumeration diverges for {pid}")
    sampled = sampling.shapley_sampling(game, samples, seed)
    for pid in game.players:
        if not math.isfinite(sampled.stderr[pid]):
            return Outcome(FAIL, f"sampling stderr is not finite for {pid}")
        off = abs(sampled.payoffs[pid] - exact[pid])
        if off > SAMPLING_SIGMAS * sampled.stderr[pid] + margin[pid]:
            return Outcome(
                FAIL, f"sampling off by more than {SAMPLING_SIGMAS:g} standard errors for {pid}"
            )
    return Outcome(PASS)
