"""The names the traced benchmark wraps must exist in the program.

``bench/spans.py`` replaces every module binding of the functions named in
its ``WRAPPED`` table, plus ``coinvest.game.coalition_value``, for the length
of a traced run. A rename in ``src`` would only show up when that run fails,
so this reads the table from the file (parsed, not imported) and resolves
every name on its home module.
"""

import ast
import importlib
from pathlib import Path

import coinvest.cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def wrapped_table():
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {SPANS}")


def test_every_wrapped_name_resolves():
    table = wrapped_table()
    assert table
    missing = [
        f"coinvest.{layer}.{name}"
        for layer, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"coinvest.{layer}"), name, None))
    ]
    assert missing == []


def test_value_hook_and_commands_resolve():
    assert callable(importlib.import_module("coinvest.game").coalition_value)
    for command in (coinvest.cli.run, coinvest.cli.verify):
        assert callable(command.callback)
