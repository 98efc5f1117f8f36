"""The command-line parser behind :func:`coinvest.cli.main`, on ``argparse``.

``coinvest.cli`` imports this module only when ``main`` runs, so importing
``coinvest.cli`` compiles no parser code. The command line reads
``[OPTIONS] COMMAND [ARGS]...``:

- options are read left to right; an unknown option is an error;
- an option that takes a value takes the next argument whatever it looks
  like (``--out -x``), and ``--`` ends the options;
- at either level, ``--help`` (and ``--version`` before the command) wins
  over a bad value or a missing argument, but not over an unknown option;
- a command checks its option values in the order it lists them, then
  that CONFIG is given, then that nothing is left over.

Every usage error is a :class:`UsageError`, which ``main`` prints on stderr
before exiting 1.
"""

from __future__ import annotations

import argparse

from . import __version__

SUMMARY = "Plan a capacity coinvestment: solve it, split the payoff, settle the bill."


class UsageError(Exception):
    """A malformed command line. Its text, for stderr, is the usage, where
    to find help and ``Error: <what is wrong>``; a bare command line's is
    the help."""


def _refused(parser: argparse.ArgumentParser, message: str) -> UsageError:
    return UsageError(f"{parser.format_usage()}Try '{parser.prog} --help' for help.\n\n"
                      f"Error: {message}")


class _HelpFormatter(argparse.RawDescriptionHelpFormatter):
    def add_usage(self, usage, actions, groups, prefix="Usage: "):
        super().add_usage(usage, actions, groups, prefix)


class _Parser(argparse.ArgumentParser):
    """One level of the command line: ``options`` and the ``eager`` flags,
    which collect in ``eager`` in the order given, so the first one given is
    acted on before any value is checked."""

    def __init__(self, prog: str, usage: str, doc: str, eager: tuple[str, ...],
                 options=(), epilog: str | None = None):
        super().__init__(
            prog=prog,
            usage=f"%(prog)s {usage}",
            description="\n".join(f"  {line.strip()}".rstrip() for line in doc.strip().splitlines()),
            epilog=epilog,
            formatter_class=_HelpFormatter,
            add_help=False,
            allow_abbrev=False,
            exit_on_error=False,
        )
        group = self.add_argument_group("Options")
        for option in options:
            if option.metavar is None:
                group.add_argument(option.flag, dest=option.keyword, action="store_true",
                                   help=option.help)
            else:
                group.add_argument(option.flag, dest=option.keyword, metavar=option.metavar,
                                   help=option.help)
        for flag in eager:
            what = "the version" if flag == "--version" else "this message"
            group.add_argument(flag, dest="eager", action="append_const", const=flag,
                               help=f"Show {what} and exit.")
        self.flags = {option.flag for option in options} | set(eager)
        self.takes_value = {option.flag for option in options if option.metavar is not None}

    def error(self, message):
        # argparse would print its usage and exit 2, which reads as a failed check
        raise _refused(self, message)

    def parse(self, argv: list[str], interspersed: bool = True):
        """The namespace for ``argv`` and the positional arguments left over.

        Options are read up to ``--`` or, unless ``interspersed``, up to the
        first positional argument.
        """
        args, rest = [], iter(argv)
        for arg in rest:
            positional = not arg.startswith("-") or arg == "-"
            if arg == "--" or (positional and not interspersed):
                args += [arg, *rest]
            elif arg in self.takes_value:
                value = next(rest, None)
                args.append(arg if value is None else f"{arg}={value}")
            elif positional or arg.partition("=")[0] in self.flags:
                args.append(arg)
            else:
                raise _refused(self, f"No such option {arg!r}.")
        try:
            return self.parse_known_args(args)
        except argparse.ArgumentError as exc:
            name = exc.argument_name
            problem = "requires an argument" if name in self.takes_value else "does not take a value"
            raise _refused(self, f"Option {name!r} {problem}.") from None


def parse(argv: list[str], prog: str, commands):
    """What ``argv`` asks for: ``(command, keywords)`` to run
    ``command.callback(**keywords)``, or ``(None, text)`` to print ``text``
    for ``--help`` or ``--version``. ``commands`` are ``coinvest.cli``'s
    subcommands; ``prog`` is the program name that usage and help show."""
    by_name = {command.name: command for command in commands}
    listing = ["Commands:"]
    for command in commands:
        first_line = command.help.partition("\n")[0]
        listing.append(f"  {command.name:<8} {first_line}")
    top = _Parser(prog, "[OPTIONS] COMMAND [ARGS]...", SUMMARY, ("--version", "--help"),
                  epilog="\n".join(listing))
    top.add_argument("line", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    parsed, _ = top.parse(argv, interspersed=False)
    if parsed.eager:
        if parsed.eager[0] == "--version":
            return None, f"coinvest, version {__version__}"
        return None, top.format_help().rstrip("\n")
    line = parsed.line[1:] if parsed.line[:1] == ["--"] else parsed.line
    if not line:
        if argv:
            raise _refused(top, "Missing command.")
        raise UsageError(top.format_help().rstrip("\n"))
    command = by_name.get(line[0])
    if command is None:
        raise _refused(top, f"No such command {line[0]!r}.")

    usage = "[OPTIONS] CONFIG" if command.takes_config else "[OPTIONS]"
    parser = _Parser(f"{prog} {command.name}", usage, command.help, ("--help",), command.options)
    if command.takes_config:
        parser.add_argument("config", nargs="?", help=argparse.SUPPRESS)
    parsed, extra = parser.parse(line[1:])
    if parsed.eager:
        return None, parser.format_help().rstrip("\n")
    keywords = {}
    for option in command.options:
        value = getattr(parsed, option.keyword)
        if value is not None and option.convert is not None:
            try:
                value = option.convert(value)
            except ValueError as exc:
                raise _refused(parser, f"Invalid value for {option.flag!r}: {exc}") from None
        keywords[option.keyword] = value
    if command.takes_config:
        if parsed.config is None:
            raise _refused(parser, "Missing argument 'CONFIG'.")
        keywords["config"] = parsed.config
    if extra:
        plural = "s" if len(extra) > 1 else ""
        raise _refused(parser, f"Got unexpected extra argument{plural} ({' '.join(extra)})")
    return command, keywords
