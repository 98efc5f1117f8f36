"""The help and usage-error layout of ``coinvest._cmdline.render`` against
argparse's, which this module keeps as the reference: the renderer lays the
text out from the ``_Option`` rows itself, and must give argparse's bytes at
every terminal width."""

import argparse

import pytest

import coinvest.cli as cli_mod
from coinvest._cmdline import SUMMARY, render


class _HelpFormatter(argparse.RawDescriptionHelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


def argparse_render(prog, options, command=None, commands=(), message=None):
    """``render`` as argparse lays it out: a parser built from the rows."""
    if command is None:
        usage, doc = "[OPTIONS] COMMAND [ARGS]...", SUMMARY
        listing = ["Commands:"]
        for each in commands:
            first_line = each.help.partition("\n")[0]
            listing.append(f"  {each.name:<8} {first_line}")
        epilog = "\n".join(listing)
    else:
        prog = f"{prog} {command.name}"
        usage = "[OPTIONS] CONFIG" if command.takes_config else "[OPTIONS]"
        doc, epilog = command.help, None
    parser = argparse.ArgumentParser(
        prog=prog,
        usage=f"%(prog)s {usage}",
        description="\n".join(f"  {line.strip()}".rstrip() for line in doc.strip().splitlines()),
        epilog=epilog,
        formatter_class=_HelpFormatter,
        add_help=False,
    )
    group = parser.add_argument_group("Options")
    for option in options:
        if option.metavar is None:
            group.add_argument(option.flag, action="store_true", help=option.help)
        else:
            group.add_argument(option.flag, metavar=option.metavar, help=option.help)
    if message is None:
        return parser.format_help().rstrip("\n")
    return f"{parser.format_usage()}Try '{prog} --help' for help.\n\nError: {message}"


_COMMANDS = (cli_mod.presets, cli_mod.run, cli_mod.verify)

# (options, command, a usage error) of each level, as cli._parse passes them
_LEVELS = {
    "top": ((cli_mod._VERSION, cli_mod._HELP), None, "No such command 'bogus'."),
    **{
        command.name: ((*command.options, cli_mod._HELP), command, "No such option '--bogus'.")
        for command in _COMMANDS
    },
}


@pytest.mark.parametrize("prog", ["coinvest", "python -m coinvest"])
@pytest.mark.parametrize("level", list(_LEVELS))
def test_render_lays_out_what_argparse_does(monkeypatch, level, prog):
    options, command, message = _LEVELS[level]
    for columns in range(1, 201):
        monkeypatch.setenv("COLUMNS", str(columns))
        for shown in (None, message):
            args = (prog, options, command, _COMMANDS, shown)
            assert render(*args) == argparse_render(*args), (columns, shown)
