"""The Shapley axioms as metamorphic properties of ``coinvest run``.

Each property runs drawn ``custom`` configs of at most 8 players in-process
through the command line with ``--method closed`` and compares the
``records.csv`` rows, so it holds the program as a whole, not one layer:

- anonymity: permuting ``custom_sps`` changes no player's row;
- null player: a provider whose gain D·ξ·β·L/d is below 1 gets ``h_star``,
  ``shapley`` and ``payment`` 0 and changes no other row;
- efficiency and veto: the payoffs sum to ``v_grand``, and the owner gets at
  least what each provider gets;
- independence: rescaling one provider's daily load changes no other
  provider's own fields, ``beta`` through ``payoff``.

Two properties of the same family are not here. Payoffs are not monotone in
the price, nor a provider's in its own load, within u ≈ 1e-8 of its
activation threshold g = 1 + u, where the standalone profit loses its digits
to cancellation. And ``verify`` may exit 2 on a correct game, since its
4-sigma sampling gate fails by chance.
"""

import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from coinvest.shapley import SETTLE_TOL

from conftest import invoke_cli

# In the default market a provider is active when beta * L > d / (D * xi),
# about 0.137: these draw beta * L from 1e-4 to 100, so both kinds occur
_ACTIVE_OR_NOT = st.fixed_dictionaries(
    {"beta": st.floats(1e-7, 1e-5), "daily_total": st.floats(1e3, 1e7)}
)
# beta * L at most 0.1: always below the threshold
_NULL = st.fixed_dictionaries({"beta": st.floats(0.0, 1e-7), "daily_total": st.floats(0.0, 1e6)})

_EXAMPLES = settings(max_examples=50, derandomize=True, deadline=None)


def _providers(max_size=7):
    return st.lists(_ACTIVE_OR_NOT, min_size=1, max_size=max_size).map(
        lambda sps: [{"id": f"SP{k}", **sp} for k, sp in enumerate(sps)]
    )


def _records(custom_sps) -> str:
    """records.csv of a closed ``run`` of the ``custom`` config with these providers."""
    config = json.dumps({"scenario": "custom", "custom_sps": custom_sps})
    with tempfile.TemporaryDirectory() as out:
        result = invoke_cli(["run", config, "--method", "closed", "--out", out])
        assert result.exit_code == 0, result.output
        return Path(out, "records.csv").read_text(encoding="utf-8")


def _lines(records: str) -> dict[str, str]:
    """Each row of ``records`` as written, by its player id."""
    rows = csv.DictReader(io.StringIO(records))
    return {row["player_id"]: line for row, line in zip(rows, records.splitlines()[1:])}


def _rows(records: str) -> dict[str, dict[str, str]]:
    """Each row of ``records``, parsed, by its player id."""
    return {row["player_id"]: row for row in csv.DictReader(io.StringIO(records))}


@_EXAMPLES
@given(data=st.data(), sps=_providers())
def test_permuting_the_providers_changes_no_row(data, sps):
    permuted = data.draw(st.permutations(sps))
    assert _lines(_records(permuted)) == _lines(_records(sps))


@_EXAMPLES
@given(sps=_providers(max_size=6), null=_NULL)
def test_a_null_provider_gets_nothing_and_changes_no_other_row(sps, null):
    joined = _records([*sps, {"id": "NULL", **null}])
    lines = _lines(joined)
    del lines["NULL"]
    assert lines == _lines(_records(sps))
    added = _rows(joined)["NULL"]
    assert float(added["h_star"]) == float(added["shapley"]) == float(added["payment"]) == 0.0


@_EXAMPLES
@given(sps=_providers())
def test_the_payoffs_split_the_grand_value_and_the_owner_gets_most(sps):
    rows = _rows(_records(sps)).values()
    [grand] = {float(row["v_grand"]) for row in rows}
    payoffs = {row["player_id"]: float(row["shapley"]) for row in rows}
    assert abs(math.fsum(payoffs.values()) - grand) <= SETTLE_TOL * max(1.0, abs(grand))
    owner = payoffs.pop("NO")
    assert all(owner >= payoff for payoff in payoffs.values()), (owner, payoffs)


# the PlayerRecord fields of records.csv: C_star and v_grand belong to the instance
_OWN_FIELDS = ("beta", "daily_load", "h_star", "r_hat", "shapley", "payment", "payoff")


@_EXAMPLES
@given(data=st.data(), sps=_providers(), factor=st.floats(1e-2, 1e2))
def test_rescaling_one_load_changes_no_other_providers_fields(data, sps, factor):
    k = data.draw(st.integers(0, len(sps) - 1))
    rescaled = [dict(sp) for sp in sps]
    rescaled[k]["daily_total"] *= factor
    before, after = _rows(_records(sps)), _rows(_records(rescaled))
    for pid in before.keys() - {"NO", sps[k]["id"]}:
        assert [after[pid][f] for f in _OWN_FIELDS] == [before[pid][f] for f in _OWN_FIELDS]
