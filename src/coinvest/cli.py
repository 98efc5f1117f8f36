"""Command line front end: run scenario sweeps, verify game properties.

``coinvest run`` solves the configured scenario and writes three files into
the output directory: ``records.csv`` (one row per instance and player, fixed
column order), ``summary.json`` (per-instance payoffs, settlement, player
flags, check outcomes and the method behind them) and ``meta.json`` (the
fully resolved config, tool version and seed). ``coinvest verify`` solves
the same instances the way ``run --method closed`` does, runs the property
suite (:mod:`coinvest.checks`) on them and prints one pass/fail line per
property. ``coinvest presets`` lists the shipped configurations. With the
closed-form method, ``run`` decides its checks structurally and never loads
numpy.

Exit codes: 0 success, 1 validation error (a bad config or a usage error),
2 property-check failure (under ``--strict`` or from ``verify``), 3 I/O error.
"""

from __future__ import annotations

import atexit
import csv
import gc
import io
import json
import os
import tempfile
from pathlib import Path

import click

from . import __version__
from .checks import FAIL, PASS, PROPERTIES, RUN_METHODS, SKIPPED, run_checks, verify_checks
from .config import (
    MAX_SEED,
    ConfigError,
    RunConfig,
    config_to_dict,
    load_preset,
    parse_config,
    preset_names,
)
from .game import GameInstance, LoadProfile, ServiceProvider
from .scenarios import (
    SweepRecord,
    run_sweep,
    scale_load,
    scenario_omega,
    scenario_price_sweep,
    scenario_same_type,
    synth_load,
)
# shapley_closed_form is not called here: bench/run.py reads it off this module
from .shapley import ShapleyMethod, classify_players_structural, shapley_closed_form  # noqa: F401

CSV_COLUMNS = (
    "scenario", "sweep_param", "sweep_value", "player_id", "beta", "daily_load",
    "h_star", "C_star", "r_hat", "shapley", "payment", "payoff", "v_grand",
)

EXIT_VALIDATION = 1
EXIT_CHECK_FAILED = 2
EXIT_IO = 3


class _Group(click.Group):
    """A click group whose usage errors (a missing or malformed argument, an
    unknown option or command) exit 1 like any other validation error:
    click's own 2 would read as a failed property check."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_VALIDATION
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_VALIDATION
            raise


class _Seed(click.IntRange):
    """An integer range that names itself an integer, so a non-number reads
    ``'abc' is not a valid integer`` rather than "integer range"."""

    name = "integer"


@click.group(cls=_Group)
@click.version_option(version=__version__, prog_name="coinvest")
def main():
    """Plan a capacity coinvestment: solve it, split the payoff, settle the bill."""
    # no command makes a BLAS call, yet OpenBLAS starts a worker per core as
    # numpy loads, which spins on the CPU; a thread count the user set still wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # the collections at interpreter exit walk every module object, which the
    # OS reclaims anyway; frozen objects are skipped. Once per process: the
    # group runs again for every in-process invocation
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)


def _load_config(config_arg: str) -> RunConfig:
    """Resolve a CLI config argument: preset name, file path, or inline JSON."""
    try:
        if config_arg in preset_names():
            return parse_config(load_preset(config_arg))
        return parse_config(config_arg)
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc


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
                seed=cfg.seed + len(solved),
            )
            solved.extend(zip(games, records))
    except (ValueError, RuntimeError) as exc:
        raise click.ClickException(str(exc)) from exc
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
    game = _build("custom_sps", GameInstance, cfg.market, tuple(sps))
    return [("custom", "index", [0.0], [game])]


def _build(fields: str, make, *args):
    """``make(*args)``, with a ValueError the model raises reported as a
    :class:`ConfigError` that names the config ``fields`` it was built from."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(f"{fields}: {exc}") from exc


def _summarize(game: GameInstance, record, checks) -> dict:
    flags = classify_players_structural(game)
    players = {
        p.player_id: {
            "beta": p.beta,
            "daily_load": p.daily_load,
            "h_star": p.h_star,
            "r_hat": p.r_hat,
            "shapley": p.shapley,
            "payment": p.payment,
            "payoff": p.payoff,
            "veto": flags[p.player_id].veto,
            "null": flags[p.player_id].null,
        }
        for p in record.players
    }
    return {
        "scenario": record.scenario,
        "sweep_param": record.sweep_param,
        "sweep_value": record.sweep_value,
        "v_grand": record.v_grand,
        "c_star": record.c_star,
        "players": players,
        "checks": {name: str(outcome) for name, outcome in checks.items()},
    }


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _records_csv_text(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        for p in rec.players:
            writer.writerow([
                rec.scenario, rec.sweep_param, _fmt(rec.sweep_value), p.player_id,
                *map(_fmt, (p.beta, p.daily_load, p.h_star, rec.c_star, p.r_hat, p.shapley,
                            p.payment, p.payoff, rec.v_grand)),
            ])
    return buf.getvalue()


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@main.command()
@click.argument("config")
@click.option("--out", "out_dir", default=None, help="Output directory (overrides the config).")
@click.option("--strict", is_flag=True, help="Exit nonzero if any property check fails.")
@click.option("--seed", type=_Seed(0, MAX_SEED), help="Random seed (overrides the config).")
@click.option("--method", type=click.Choice([m.value for m in ShapleyMethod]),
              help="Shapley method (overrides the config).")
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
        raise click.ClickException(f"refusing to write outputs: {exc}") from exc
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in outputs.items():
            _atomic_write(out / name, text)
    except OSError as exc:
        click.echo(f"error: cannot write outputs to {out}: {exc}", err=True)
        raise SystemExit(EXIT_IO) from exc

    click.echo(f"wrote {len(records)} records to {out / 'records.csv'}")
    if failures:
        for index, name, outcome in failures:
            click.echo(f"check failed on instance {index}: {name}: {outcome}", err=True)
        if strict:
            raise SystemExit(EXIT_CHECK_FAILED)


@main.command()
@click.argument("config")
def verify(config):
    """Run the property suite on the configured instances and report pass/fail.

    Properties: supermodularity of every instance, core membership of the
    Shapley payoffs, agreement of the three Shapley routes, and settlement
    balance. Up to the enumeration bound, the core and supermodularity are
    decided both structurally and by brute force, and must agree. A property
    skipped on some instances also gets a line on stderr, with the count and
    the first such instance's reason. CONFIG is a preset name, a JSON file
    path, or inline JSON.
    """
    cfg = _load_config(config)
    solved = _solve(cfg._replace(method=ShapleyMethod.CLOSED_FORM))
    outcomes = [
        verify_checks(game, record, cfg.samples, cfg.seed + k)
        for k, (game, record) in enumerate(solved)
    ]
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
        click.echo(f"{line:<22} {'FAIL' if fails else 'PASS'}  ({detail})")
        skips = [(k, r) for k, r in enumerate(results) if r.verdict == SKIPPED]
        if skips:
            k, outcome = skips[0]
            click.echo(f"{line}: skipped on {len(skips)}/{len(results)} instances; "
                       f"instance {k}: {outcome.detail}", err=True)
        failed = failed or bool(fails)
    if failed:
        raise SystemExit(EXIT_CHECK_FAILED)


@main.command()
def presets():
    """List the configuration presets shipped with the package."""
    for name in preset_names():
        cfg = parse_config(load_preset(name))
        click.echo(f"{name:<8} {cfg.scenario:<12} {cfg.description}")


if __name__ == "__main__":
    main()
