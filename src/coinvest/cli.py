"""Command line front end: run scenario sweeps, verify game properties.

``coinvest run`` solves the configured scenario and writes three files into
the output directory: ``records.csv`` (one row per instance and player, fixed
column order), ``summary.json`` (per-instance payoffs, settlement, player
flags, check outcomes and the method behind them) and ``meta.json`` (the
fully resolved config, tool version and seed). ``coinvest verify`` solves
the same instances the way ``run --method closed`` does, runs the property
suite (:mod:`coinvest.checks`) on them and prints one pass/fail line per
property. ``coinvest presets`` lists the shipped configurations.

numpy is optional (the ``fast`` extra). ``run`` decides its checks
structurally and, under either method, never loads it; nor does
``presets``. ``verify`` reads its coalition tables as tuples unless its
brute-force work is past :data:`LIST_TABLE_BUDGET`, and as ndarrays past it
if numpy is installed. Without numpy, such a ``verify`` says so in one line
on stderr and prints the same verdicts from tuple tables, only slower.

A closed ``run`` loads neither the exact oracle (:mod:`coinvest.oracle`)
nor the sampler (:mod:`coinvest.sampling`); ``run --method sample`` and
``verify`` load the sampler, and ``verify`` loads the oracle too unless every
instance is past the enumeration bound.

Exit codes: 0 success, 1 validation error (a bad config or a usage error),
2 property-check failure (under ``--strict`` or from ``verify``), 3 I/O error.
"""

from __future__ import annotations

import atexit
import gc
import importlib.util
import io
import json
import os
import sys
from collections.abc import Callable
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .checks import FAIL, PASS, PROPERTIES, RUN_METHODS, run_checks, verify_checks
from .config import (
    MAX_SEED,
    ConfigError,
    RunConfig,
    config_to_dict,
    load_preset,
    parse_config,
    preset_names,
)
from .game import MAX_ENUMERATION_PLAYERS, GameInstance, LoadProfile, ServiceProvider
from .scenarios import (
    PlayerRecord,
    SweepRecord,
    run_sweep,
    scale_load,
    scenario_omega,
    scenario_price_sweep,
    scenario_same_type,
    synth_load,
)
from .shapley import PlayerFlags, ShapleyMethod, classify_players_structural
# shapley_closed_form is not called here: bench/run.py reads it off this module
from .shapley import shapley_closed_form  # noqa: F401

CSV_COLUMNS = (
    "scenario", "sweep_param", "sweep_value", "player_id", "beta", "daily_load",
    "h_star", "C_star", "r_hat", "shapley", "payment", "payoff", "v_grand",
)

#: The most exact work, the sum of n * 2^n over a config's instances of at
#: most MAX_ENUMERATION_PLAYERS players, that ``verify`` checks on tuple
#: tables, without numpy; past it the tables are ndarrays, if numpy is
#: installed. On a game with a veto player every check costs about n * 2^n
#: table reads, ~60 ns per unit on tuples. The rule is per config, since a
#: config pays numpy's import once, and the budget is the measured crossover
#: of a fresh ``verify``: one 16-player instance (1 048 576 units) is faster
#: on tuples, one of 17 players (2 228 224) or two of 16 on ndarrays.
LIST_TABLE_BUDGET = 1_500_000

EXIT_VALIDATION = 1
EXIT_CHECK_FAILED = 2
EXIT_IO = 3

_METHODS = tuple(m.value for m in ShapleyMethod)


class _Failure(Exception):
    """What the program refuses: ``main`` prints the text on stderr as it is
    and exits 1. For a config, the text is ``Error: <what is wrong>``; for a
    malformed command line, the usage, where to find help and that line; for
    a bare ``coinvest``, the help."""


class _Option(NamedTuple):
    """A command's option. Without a ``metavar`` it is a flag; with one it
    takes a value, which ``convert``, if given, checks and converts, raising
    ValueError with the reason it refuses."""

    flag: str
    keyword: str
    help: str
    metavar: str | None = None
    convert: Callable[[str], object] | None = None


class _Command:
    """A subcommand: ``main`` passes the parsed command line to ``callback``
    as keywords. It reads ``callback`` at each call, so a wrapper set on it
    is what runs."""

    def __init__(self, callback, takes_config: bool, options: tuple[_Option, ...]):
        self.name = callback.__name__
        self.callback = callback
        self.help = callback.__doc__ or ""
        self.takes_config = takes_config
        self.options = options


def _command(*options: _Option, takes_config: bool = True):
    """Make the decorated function a subcommand that takes ``options`` and,
    unless ``takes_config`` is false, a CONFIG argument."""
    return lambda callback: _Command(callback, takes_config, options)


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid integer.") from None
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"{seed} is not in the range 0<=x<={MAX_SEED}.")
    return seed


def _method(text: str) -> str:
    if text not in _METHODS:
        raise ValueError(f"{text!r} is not one of {', '.join(map(repr, _METHODS))}.")
    return text


_VERSION = _Option("--version", "version", "Show the version and exit.")
_HELP = _Option("--help", "help", "Show this message and exit.")


def _read(args: list[str], options, interspersed: bool = True, takes_first: bool = True):
    """Read ``options`` off ``args``, left to right.

    Returns three things. First, the value given for each option's keyword:
    ``True`` for a flag, and the last value given wins; keys are in the order
    first given. Then the arguments that are not options, and what is wrong
    with the options, or None.

    A value-taking option takes the next argument, whatever it looks like
    (``--out -x``), or the text after ``=``. ``--`` ends the options; so does
    the first argument that is not one, unless ``interspersed``. An unknown
    option is what is wrong, and ends the reading. Failing that, it is the
    first flag given a value, or the option left without one.

    ``takes_first`` says that the level reads the first argument that is not
    an option (the command, or CONFIG). As argparse did, that argument takes
    the ``--`` right beside it; anywhere else, the ``--`` is kept among the
    arguments.
    """
    by_flag = {option.flag: option for option in options}
    values, line, wrong = {}, [], None
    after_first = False  # the previous argument is line[0]
    rest = iter(args)
    for arg in rest:
        if arg == "--":
            if not (takes_first and (not line or after_first)):
                line.append(arg)
            line += rest
            break
        if not arg.startswith("-") or arg == "-":
            line.append(arg)
            if not interspersed:
                line += rest
                break
            after_first = len(line) == 1
            continue
        after_first = False
        option = by_flag.get(arg)
        if option is not None and option.metavar is not None:
            values[option.keyword] = next(rest, None)
            if values[option.keyword] is None:
                wrong = wrong or f"Option {arg!r} requires an argument."
            continue
        flag, equals, value = arg.partition("=")
        option = by_flag.get(flag)
        if option is None:
            return values, line, f"No such option {arg!r}."
        if option.metavar is not None:
            values[option.keyword] = value
        elif equals:
            wrong = wrong or f"Option {flag!r} does not take a value."
        else:
            values[option.keyword] = True
    return values, line, wrong


def _parse(argv: list[str], prog: str, commands):
    """What ``argv`` asks for: ``(command, keywords)`` to run
    ``command.callback(**keywords)``, or ``(None, text)`` to print ``text``
    for ``--help`` or ``--version``; a malformed command line raises
    :class:`_Failure`. ``commands`` are the subcommands; ``prog`` is the
    program name that usage and help show.

    The command line reads ``[OPTIONS] COMMAND [ARGS]...`` (see :func:`_read`):

    - at either level, ``--help`` (and ``--version`` before the command) wins
      over a bad value or a missing argument, but not over an unknown or
      malformed option;
    - a command checks its option values in the order it lists them, then
      that CONFIG is given, then that nothing is left over.
    """

    def text(options, command=None, message=None):
        # a valid command line never compiles the renderer
        from ._cmdline import render

        return render(prog, options, command, commands, message)

    top = (_VERSION, _HELP)
    given, line, wrong = _read(argv, top, interspersed=False)
    if wrong:
        raise _Failure(text(top, message=wrong))
    if given:  # the first of --version and --help given wins
        if next(iter(given)) == "version":
            return None, f"coinvest, version {__version__}"
        return None, text(top)
    if not line:
        raise _Failure(text(top, message="Missing command." if argv else None))
    command = {command.name: command for command in commands}.get(line[0])
    if command is None:
        raise _Failure(text(top, message=f"No such command {line[0]!r}."))

    options = (*command.options, _HELP)
    given, line, wrong = _read(line[1:], options, takes_first=command.takes_config)
    if wrong:
        raise _Failure(text(options, command, wrong))
    if "help" in given:
        return None, text(options, command)
    keywords = {}
    for option in command.options:
        value = given.get(option.keyword, False if option.metavar is None else None)
        if value is not None and option.convert is not None:
            try:
                value = option.convert(value)
            except ValueError as exc:
                message = f"Invalid value for {option.flag!r}: {exc}"
                raise _Failure(text(options, command, message)) from None
        keywords[option.keyword] = value
    if command.takes_config:
        if not line:
            raise _Failure(text(options, command, "Missing argument 'CONFIG'."))
        keywords["config"] = line.pop(0)
    if line:
        message = f"Got unexpected extra argument{'s' if len(line) > 1 else ''} ({' '.join(line)})"
        raise _Failure(text(options, command, message))
    return command, keywords


def main(args=None, prog_name=None, standalone_mode=True):
    """Run one command line, ``args`` (default ``sys.argv[1:]``).

    Returns when the command succeeds or help or the version is shown.
    Anything else prints its error on stderr and raises ``SystemExit`` with
    the exit code; a closed stdout exits 1 quietly. ``prog_name`` (default
    ``coinvest``) is the name usage and help show. With ``standalone_mode``,
    an interrupt prints ``Aborted!`` and exits 1; without it, the
    ``KeyboardInterrupt`` reaches the caller.
    """
    # no command makes a BLAS call, yet OpenBLAS starts a worker per core as
    # numpy loads, which spins on the CPU; a thread count the user set still wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # the collections at interpreter exit walk every module object, which the
    # OS reclaims anyway; frozen objects are skipped. Once per process: main
    # runs again for every in-process invocation
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        command, keywords = _parse(sys.argv[1:] if args is None else list(args),
                                   prog_name or "coinvest", (presets, run, verify))
        if command is None:  # --help or --version: keywords is the text to show
            _echo(keywords)
        else:
            command.callback(**keywords)
        return
    except _Failure as exc:
        _echo(str(exc), err=True)
    except KeyboardInterrupt:
        if not standalone_mode:
            raise
        _echo("\nAborted!", err=True)
    except BrokenPipeError:
        # the reader went away (coinvest presets | head -1): exit 1 without a
        # traceback, with stdout on devnull so that the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(EXIT_VALIDATION)


# the installed script and python -m coinvest call main(); bench/run.py and
# the tests call main.main(args=..., prog_name=..., standalone_mode=...)
main.main = main


def _echo(text: str, err: bool = False) -> None:
    """Write one line in one write and flush it, so stdout and stderr lines
    keep their order when both go to one file."""
    stream = sys.stderr if err else sys.stdout
    stream.write(f"{text}\n")
    stream.flush()


def _load_config(config_arg: str) -> RunConfig:
    """Resolve a CLI config argument: preset name, file path, or inline JSON."""
    try:
        if config_arg in preset_names():
            return parse_config(load_preset(config_arg))
        return parse_config(config_arg)
    except ConfigError as exc:
        raise _Failure(f"Error: {exc}") from exc


def _solve(cfg: RunConfig) -> list[tuple[GameInstance, SweepRecord]]:
    """Build the configured instances and solve each with ``cfg.method``.

    ``run`` and ``verify`` both solve here: one (game, record) pair per
    instance, in config order. A config the model rejects exits 1, naming
    the config fields it blames.
    """
    try:
        solved = []
        for label, param, values, games in _build_groups(cfg):
            records = run_sweep(
                games,
                scenario=label,
                sweep_param=param,
                sweep_values=values,
                method=cfg.method,
                samples=cfg.samples,
                seed=cfg.seed,
            )
            solved.extend(zip(games, records))
    except (ValueError, RuntimeError) as exc:
        raise _Failure(f"Error: {exc}") from exc
    return solved


def _build_groups(cfg: RunConfig):
    """Instances to solve, grouped as (label, sweep_param, sweep_values, games)."""
    if cfg.scenario == "same-type":
        games = [
            _build(f"market, l_total_grid[{k}]", scenario_same_type, l, cfg.market)
            for k, l in enumerate(cfg.l_total_grid)
        ]
        return [("same-type", "l_total", list(cfg.l_total_grid), games)]
    if cfg.scenario == "omega":
        games = [
            _build(f"market, l_total, omega_grid[{k}]", scenario_omega,
                   w, cfg.l_total, cfg.market)
            for k, w in enumerate(cfg.omega_grid)
        ]
        return [("omega", "omega", list(cfg.omega_grid), games)]
    if cfg.scenario == "price-sweep":
        groups = []
        for k, n in enumerate(cfg.n_sps):
            games = _build(f"market, l_total, n_sps[{k}], d_grid",
                           scenario_price_sweep, n, cfg.d_grid, cfg.l_total, cfg.market)
            groups.append((f"price-sweep-n{n}", "d", list(cfg.d_grid), games))
        return groups
    # custom: one instance assembled from the explicit provider list
    base = synth_load(cfg.market.T)
    sps = []
    for k, spec in enumerate(cfg.custom_sps):
        if spec.loads is not None:
            load = _build(f"custom_sps[{k}].loads", LoadProfile, spec.loads)
        else:
            load = _build(f"custom_sps[{k}].daily_total", scale_load, base,
                          spec.daily_total / base.total)
        sps.append(ServiceProvider(spec.id, spec.beta, load))
    game = _build("market, custom_sps", GameInstance, cfg.market, tuple(sps))
    return [("custom", "index", [0.0], [game])]


def _build(fields: str, make, *args):
    """``make(*args)``, with a ValueError the model raises reported as a
    :class:`ConfigError` that names the config ``fields`` it was built from."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{fields}: {exc}") from exc


def _summarize(game: GameInstance, record: SweepRecord, checks) -> dict:
    """One instance's summary.json block: the record's fields, with each
    player's fields and flags, but its id, keyed by that id."""
    flags = classify_players_structural(game)
    keys = (*PlayerRecord._fields, *PlayerFlags._fields)
    players = {}
    for player in record.players:
        block = dict(zip(keys, player + flags[player.player_id]))
        players[block.pop("player_id")] = block
    return {
        **record._asdict(),
        "players": players,
        "checks": {name: str(outcome) for name, outcome in checks.items()},
    }


def _cells(record) -> list:
    # strings as they are, numbers with 17 significant digits; no column
    # picks an instance's players, so that tuple stays as it is
    return [v if isinstance(v, (str, tuple)) else f"{v:.17g}" for v in record]


def _records_csv_text(records) -> str:
    """records.csv: a row per instance and player. Each of ``CSV_COLUMNS``
    is the player's or the instance's field of that name in lower case."""
    import csv  # here, so that verify and presets never load it

    fields = (*PlayerRecord._fields, *SweepRecord._fields)
    pick = itemgetter(*(fields.index(column.lower()) for column in CSV_COLUMNS))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        shared = _cells(rec)
        writer.writerows(pick(_cells(p) + shared) for p in rec.players)
    return buf.getvalue()


def _write_outputs(out: Path, outputs: dict[str, str]) -> None:
    """Write each ``outputs`` text to the file of its name in ``out``.

    Every text goes to a new file beside its target first, created with the
    mode ``open`` gives, 0o666 less the umask (``mkstemp`` gives 0o600). Only
    once all are written is each renamed over its target, so a failed write
    leaves the previous files as they were; on any failure every temporary
    file made is removed.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    made = []
    try:
        for name in outputs:
            tmp = out / f"{name}.{os.urandom(8).hex()}.tmp"
            fd = os.open(tmp, flags, 0o666)
            made.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(outputs[name])
        for tmp, name in zip(made, outputs):
            os.replace(tmp, out / name)
    except BaseException:
        for tmp in made:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


@_command(
    _Option("--out", "out_dir", "Output directory (overrides the config).", "TEXT"),
    _Option("--strict", "strict", "Exit nonzero if any property check fails."),
    _Option("--seed", "seed", f"Random seed (overrides the config).  [0<=x<={MAX_SEED}]",
            "INTEGER", _seed),
    _Option("--method", "method", "Shapley method (overrides the config).",
            f"[{'|'.join(_METHODS)}]", _method),
)
def run(config, out_dir, strict, seed, method):
    """Solve the configured scenario and write records.csv, summary.json, meta.json.

    CONFIG is a preset name, a JSON file path, or inline JSON.
    """
    cfg = _load_config(config)
    if out_dir is not None:
        cfg = cfg._replace(out_dir=out_dir)
    if seed is not None:
        cfg = cfg._replace(seed=seed)
    if method is not None:
        cfg = cfg._replace(method=ShapleyMethod(method))
    solved = _solve(cfg)
    records = [record for _, record in solved]
    checks = [run_checks(game, record) for game, record in solved]
    failures = [
        (i, name, outcome)
        for i, outcomes in enumerate(checks)
        for name, outcome in outcomes.items()
        if outcome.verdict == FAIL
    ]
    meta = {
        "tool": "coinvest",
        "version": __version__,
        "seed": cfg.seed,
        "strict": bool(strict),
        "config": config_to_dict(cfg),
        "instances": len(records),
    }
    summary_doc = {
        "instances": [_summarize(*pair, outcomes) for pair, outcomes in zip(solved, checks)],
        "all_checks_passed": not failures,
        "check_methods": RUN_METHODS,
    }

    outputs = {"records.csv": _records_csv_text(records)}
    try:
        # allow_nan=False: a non-finite number is refused before any file is written
        for name, doc in (("summary.json", summary_doc), ("meta.json", meta)):
            outputs[name] = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise _Failure(f"Error: refusing to write outputs: {exc}") from exc
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_outputs(out, outputs)
    except OSError as exc:
        _echo(f"error: cannot write outputs to {out}: {exc}", err=True)
        raise SystemExit(EXIT_IO) from exc

    _echo(f"wrote {len(records)} records to {out / 'records.csv'}")
    if failures:
        for index, name, outcome in failures:
            _echo(f"check failed on instance {index}: {name}: {outcome}", err=True)
        if strict:
            raise SystemExit(EXIT_CHECK_FAILED)


@_command()
def verify(config):
    """Run the property suite on the configured instances and report pass/fail.

    Properties: supermodularity of every instance, core membership of the
    Shapley payoffs, agreement of the three Shapley routes, and settlement
    balance. Up to the enumeration bound, the core and supermodularity are
    decided both structurally and by brute force, and must agree; past it,
    only the sampler checks the closed form. A property that passed without
    one of its legs on some instances also gets a line on stderr, with the
    count and the first such instance's reason. CONFIG is a preset name, a
    JSON file path, or inline JSON.
    """
    cfg = _load_config(config)
    solved = _solve(cfg._replace(method=ShapleyMethod.CLOSED_FORM))
    sizes = [len(game.players) for game, _ in solved]
    work = sum(n << n for n in sizes if n <= MAX_ENUMERATION_PLAYERS)
    array = False
    if work > LIST_TABLE_BUDGET:
        # past the budget, ndarray tables if numpy is installed; tuples without it
        array = importlib.util.find_spec("numpy") is not None
        if not array:
            _echo(f"verify: {work} units of exact work, past the budget of "
                  f"{LIST_TABLE_BUDGET}, run on tuple tables since numpy is not "
                  "installed; pip install 'coinvest[fast]' runs them on ndarrays", err=True)
    outcomes = [verify_checks(game, record, cfg.samples, cfg.seed, array)
                for game, record in solved]
    failed = False
    for key, line, _ in PROPERTIES:
        if line is None:
            continue
        results = [checks[key] for checks in outcomes]
        detail = f"{sum(r.verdict == PASS for r in results)}/{len(results)} instances"
        fails = [(k, r) for k, r in enumerate(results) if r.verdict == FAIL]
        if fails:
            k, outcome = fails[0]
            detail += f"; instance {k}: {outcome.detail}"
        _echo(f"{line:<22} {'FAIL' if fails else 'PASS'}  ({detail})")
        partial = [(k, r) for k, r in enumerate(results) if r.verdict == PASS and r.detail]
        if partial:
            k, outcome = partial[0]
            _echo(f"{line}: passed in part on {len(partial)}/{len(results)} instances; "
                  f"instance {k}: {outcome.detail}", err=True)
        failed = failed or bool(fails)
    if failed:
        raise SystemExit(EXIT_CHECK_FAILED)


@_command(takes_config=False)
def presets():
    """List the configuration presets shipped with the package."""
    for name in preset_names():
        cfg = parse_config(load_preset(name))
        _echo(f"{name:<8} {cfg.scenario:<12} {cfg.description}")


if __name__ == "__main__":
    main()
