"""Help and usage errors of :func:`coinvest.cli.main`, rendered by ``argparse``.

``coinvest.cli`` reads the command line itself. It imports this module only
to show text: the help, for ``--help`` or on stderr for a bare ``coinvest``,
and a usage error's usage line, where to find help and ``Error: <what is
wrong>``. So a valid command line compiles none of this module and loads
neither ``argparse`` nor the ``gettext`` and ``locale`` modules that argparse
imports while it builds a parser. argparse still wraps the help to the
terminal's width.
"""

from __future__ import annotations

import argparse

SUMMARY = "Plan a capacity coinvestment: solve it, split the payoff, settle the bill."


class _HelpFormatter(argparse.RawDescriptionHelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


def render(prog: str, options, command=None, commands=(), message: str | None = None) -> str:
    """The help of ``command``, or of the top level when it is None, which
    lists ``commands``; given a ``message``, the usage error that states it
    instead. ``options`` are the level's ``coinvest.cli._Option`` rows, in the
    order the help lists them; ``prog`` is the program name."""
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
