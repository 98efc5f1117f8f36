"""README's command-line contract against ``coinvest.cli``: the synopsis of
each command, the exit codes and the records.csv columns name what the code
declares, so that neither changes without the other; so does each named
constant README states a value for. And README's library quickstart runs as
written, without numpy."""

import re
from pathlib import Path

import pytest

import coinvest.cli as cli_mod
import coinvest.shapley as shapley_mod

from conftest import fresh_interpreter

_README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
_COMMANDS = (cli_mod.presets, cli_mod.run, cli_mod.verify)


def _one(pattern: str) -> re.Match:
    [match] = re.finditer(pattern, _README, re.MULTILINE | re.DOTALL)
    return match


def _synopsis() -> dict[str, str]:
    """The CLI section's ``sh`` block: each ``coinvest`` line's arguments, by command."""
    block = _one(r"^## CLI\n\n```sh\n(.*?)```").group(1)
    lines = [line.split(maxsplit=2) for line in block.splitlines()]
    assert {line[0] for line in lines} == {"coinvest"}
    return {line[1]: line[2] if len(line) > 2 else "" for line in lines}


def test_the_synopsis_lists_every_command_once():
    assert sorted(_synopsis()) == sorted(command.name for command in _COMMANDS)


@pytest.mark.parametrize("command", _COMMANDS, ids=lambda command: command.name)
def test_the_synopsis_shows_each_option_as_declared(command):
    shown = _synopsis()[command.name]
    assert shown.startswith("<config>") == command.takes_config
    options = re.findall(r"\[(--[\w-]+)( [^\]]+)?\]", shown)
    assert [flag for flag, _ in options] == [option.flag for option in command.options]
    for (flag, value), option in zip(options, command.options):
        # a flag bare, an option that takes a value with a placeholder, and
        # one that takes a choice with the choices
        assert bool(value) == (option.metavar is not None), flag
        if option.metavar and option.metavar.startswith("["):
            assert value == f" {option.metavar.strip('[]')}", flag


def test_the_exit_codes_are_the_declared_ones():
    text = " ".join(_one(r"^Exit codes: (.*?)\. ").group(1).split())
    codes = dict(re.findall(r"`(\d)` ([^,(]+)", text))
    assert {code: meaning.strip() for code, meaning in codes.items()} == {
        "0": "success",
        str(cli_mod.EXIT_VALIDATION): "validation error",
        str(cli_mod.EXIT_CHECK_FAILED): "property-check failure",
        str(cli_mod.EXIT_IO): "I/O error",
    }


def test_the_csv_columns_are_the_written_ones():
    listed = _one(r"fixed column order:\n\s*`([^`]*)`").group(1)
    assert tuple(re.split(r",\s+", listed)) == cli_mod.CSV_COLUMNS


# README's named constants, each with its value in the module README places it in
_CONSTANTS = {
    **{name: getattr(shapley_mod, name) for name in (
        "STABILITY_TOL", "SETTLE_TOL", "SETTLE_TERMS_TOL", "AGREEMENT_TOL", "SAMPLING_SIGMAS",
    )},
    "LIST_TABLE_BUDGET": cli_mod.LIST_TABLE_BUDGET,
}
# a number such as 4, 1e-9 or 10^6
_NUMBER = r"(\d[\w.^-]*?)(?=[\s,)])"
_NAME = r"`(?:coinvest\.\w+\.)?([A-Z][A-Z_]+)`"


def _stated_constants() -> dict[str, set[str]]:
    """Each value README states for a named constant, by name: the number in
    "`NAME` (value" and the last number before "(`NAME`)", with no parenthesis
    and no other number between them."""
    stated = {}
    pairs = [(name, value) for value, name in re.findall(
        r"(?<!\S)" + _NUMBER + r"(?:[^()\d]|(?<=\S)\d)*\(" + _NAME + r"\)", _README)]
    pairs += re.findall(_NAME + r" \(" + _NUMBER, _README)
    for name, value in pairs:
        stated.setdefault(name, set()).add(value)
    return stated


def test_each_named_constant_has_its_stated_value():
    stated = _stated_constants()
    assert sorted(stated) == sorted(_CONSTANTS)
    for name, values in stated.items():
        for value in values:
            base, power = value.split("^") if "^" in value else (value, "1")
            assert float(base) ** int(power) == _CONSTANTS[name], (name, value)


def test_the_library_quickstart_runs_without_numpy():
    # numpy is an extra, so the quickstart must run on a plain install; a None
    # entry in sys.modules makes every import of numpy fail
    block = _one(r"^```python\n(.*?)^```").group(1)
    proc = fresh_interpreter("-c", 'import sys\nsys.modules["numpy"] = None\n' + block)
    assert proc.returncode == 0, proc.stderr
