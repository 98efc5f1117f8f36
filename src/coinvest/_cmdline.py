"""Help and usage errors of :func:`coinvest.cli.main`, laid out from its rows.

``coinvest.cli`` reads the command line itself. It imports this module only
to show text: the help, for ``--help`` or on stderr for a bare ``coinvest``,
and a usage error's usage line, where to find help and ``Error: <what is
wrong>``. So a valid command line compiles none of this module. The layout
is argparse's, byte for byte at every terminal width: only the options' help
is wrapped, to the terminal's width less 2.
"""

from __future__ import annotations

import re
import shutil
import textwrap

SUMMARY = "Plan a capacity coinvestment: solve it, split the payoff, settle the bill."


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
        doc, epilog = command.help, ""
    usage = f"Usage: {prog} {usage}"
    if message is not None:
        return f"{usage}\nTry '{prog} --help' for help.\n\nError: {message}"

    width = shutil.get_terminal_size().columns - 2
    invocations = [o.flag if o.metavar is None else f"{o.flag} {o.metavar}" for o in options]
    # each option's help starts in this column; an invocation that leaves
    # less than two spaces before it goes on a line of its own
    column = min(max(map(len, invocations)) + 4, 24, max(width - 20, 4))
    lines = ["Options:"]
    for invocation, option in zip(invocations, options):
        text = re.sub(r"\s+", " ", option.help, flags=re.ASCII).strip()
        wrapped = textwrap.wrap(text, max(width - column, 11))
        if len(invocation) <= column - 4:
            lines.append(f"  {invocation:<{column - 4}}  {wrapped.pop(0)}")
        else:
            lines.append(f"  {invocation}")
        lines += [" " * column + line for line in wrapped]
    description = "\n".join(f"  {line.strip()}".rstrip() for line in doc.strip().splitlines())
    text = f"{usage}\n\n{description}\n\n\n" + "\n".join(lines) + f"\n\n{epilog}"
    # every run of blank lines cut to one
    return re.sub(r"\n\n\n+", "\n\n", text).strip("\n")
