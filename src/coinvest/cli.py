"""Command line front end: run scenario sweeps, verify game properties.

``coinvest run`` solves the configured scenario and writes three files into
the output directory: ``records.csv`` (one row per instance and player, fixed
column order), ``summary.json`` (per-instance payoffs, settlement, player
flags and check outcomes) and ``meta.json`` (the fully resolved config, tool
version and seed). ``coinvest verify`` runs the property suite on the same
instances and prints one pass/fail line per property. ``coinvest presets``
lists the configurations shipped with the package.

Exit codes: 0 success, 1 validation error, 2 property-check failure (under
``--strict`` or from ``verify``), 3 I/O error.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    config_to_dict,
    load_preset,
    parse_config,
    preset_names,
)
from .game import MAX_ENUMERATION_PLAYERS, GameInstance, LoadProfile, ServiceProvider
from .scenarios import (
    clamping_applied,
    run_sweep,
    scale_load,
    scenario_omega,
    scenario_price_sweep,
    scenario_same_type,
    synth_load,
)
from .shapley import (
    AGREEMENT_TOL,
    SAMPLING_SIGMAS,
    SETTLE_TERMS_TOL,
    SETTLE_TOL,
    ShapleyMethod,
    check_core,
    check_supermodularity,
    classify_players,
    settle,
    shapley_closed_form,
    shapley_enumeration,
    shapley_sampling,
)

CSV_COLUMNS = (
    "scenario", "sweep_param", "sweep_value", "player_id", "beta", "daily_load",
    "h_star", "C_star", "r_hat", "shapley", "payment", "payoff", "v_grand",
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILED = 2
EXIT_IO = 3

#: ``verify`` output lines and the per-instance check each one aggregates.
VERIFY_PROPERTIES = (
    ("supermodularity", "supermodularity"),
    ("core-membership", "core"),
    ("oracle-triangle", "oracle_triangle"),
    ("settlement-balance", "settlement_balance"),
)


@click.group()
@click.version_option(version=__version__, prog_name="coinvest")
def main():
    """Plan a capacity coinvestment: solve it, split the payoff, settle the bill."""


def _load_config(config_arg: str) -> RunConfig:
    """Resolve a CLI config argument: preset name, file path, or inline JSON."""
    if config_arg in preset_names():
        return parse_config(load_preset(config_arg))
    return parse_config(config_arg)


def _build_groups(cfg: RunConfig):
    """Instances to solve, grouped as (label, sweep_param, sweep_values, games)."""
    if cfg.scenario == "same-type":
        games = [
            _build(f"market, load_spec, l_total_grid[{k}]", scenario_same_type,
                   l, cfg.market, cfg.load_spec)
            for k, l in enumerate(cfg.l_total_grid)
        ]
        return [("same-type", "l_total", list(cfg.l_total_grid), games)]
    if cfg.scenario == "omega":
        games = [
            _build(f"market, load_spec, l_total, omega_grid[{k}]", scenario_omega,
                   w, cfg.l_total, cfg.market, cfg.load_spec)
            for k, w in enumerate(cfg.omega_grid)
        ]
        return [("omega", "omega", list(cfg.omega_grid), games)]
    if cfg.scenario == "price-sweep":
        groups = []
        for k, n in enumerate(cfg.n_sps):
            games = _build(f"market, load_spec, l_total, n_sps[{k}], d_grid",
                           scenario_price_sweep, n, cfg.d_grid, cfg.l_total, cfg.market,
                           cfg.load_spec)
            groups.append((f"price-sweep-n{n}", "d", list(cfg.d_grid), games))
        return groups
    # custom: one instance assembled from the explicit provider list
    base = _build("load_spec", synth_load, cfg.load_spec)
    sps = []
    for k, spec in enumerate(cfg.custom_sps):
        if spec.loads is not None:
            load = LoadProfile(spec.loads)
        elif base.total <= 0.0 and spec.daily_total > 0.0:
            raise ConfigError(f"custom_sps[{k}]: load shape sums to zero; give explicit loads")
        else:
            factor = 0.0 if spec.daily_total == 0.0 else spec.daily_total / base.total
            load = _build(f"load_spec, custom_sps[{k}].daily_total", scale_load, base, factor)
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


def _rel_err(got: float, ref: float) -> float:
    return abs(got - ref) / max(1.0, abs(ref))


def _check_instance(
    game: GameInstance, payoff, payment, revenue, capacity: float
) -> dict[str, str]:
    """Stability and settlement checks of one solved instance.

    Each outcome reads ``pass``, ``skipped: ...`` or ``fail: ...``. ``run``
    feeds it a record (summary.json, ``--strict``); ``verify`` feeds it the
    closed-form payoffs and their settlement.
    """
    checks = {}
    n = len(game.players)
    if n > MAX_ENUMERATION_PLAYERS:
        checks["core"] = checks["supermodularity"] = _too_many(n)
    else:
        core = check_core(game, payoff)
        if core.in_core:
            checks["core"] = "pass"
        else:
            where = sorted(core.violating_coalition) if core.violating_coalition else "efficiency"
            checks["core"] = f"fail: blocked by {where}"
        report = check_supermodularity(game)
        if report.holds:
            checks["supermodularity"] = "pass"
        else:
            pid, small, large = report.counterexample
            checks["supermodularity"] = (
                f"fail: player {pid} contributes less to {sorted(large)} than to {sorted(small)}"
            )

    bill = game.market.d * capacity
    paid = math.fsum(payment[pid] for pid in game.players)
    broken = [
        pid for pid in game.players
        if _rel_err(payoff[pid], revenue[pid] - payment[pid]) > AGREEMENT_TOL
    ]
    # each payment is revenue - payoff, so the sum carries their rounding too
    terms = math.fsum(abs(revenue[pid]) + abs(payoff[pid]) for pid in game.players)
    if abs(paid - bill) > max(SETTLE_TOL * max(1.0, abs(bill)), SETTLE_TERMS_TOL * terms):
        checks["settlement_balance"] = f"fail: payments sum to {paid!r}, capacity bill is {bill!r}"
    elif broken:
        checks["settlement_balance"] = f"fail: payoff is not revenue minus payment for {broken}"
    else:
        checks["settlement_balance"] = "pass"
    return checks


def _too_many(n: int) -> str:
    return f"skipped: {n} players exceeds the enumeration bound"


def _summarize(game: GameInstance, record) -> dict:
    n = len(game.players)
    flags = classify_players(game) if n <= MAX_ENUMERATION_PLAYERS else None
    players = {}
    for p in record.players:
        entry = {
            "beta": p.beta,
            "daily_load": p.daily_load,
            "h_star": p.h_star,
            "r_hat": p.r_hat,
            "shapley": p.shapley,
            "payment": p.payment,
            "payoff": p.payoff,
        }
        if flags is not None:
            entry["veto"] = flags[p.player_id].veto
            entry["null"] = flags[p.player_id].null
        players[p.player_id] = entry
    return {
        "scenario": record.scenario,
        "sweep_param": record.sweep_param,
        "sweep_value": record.sweep_value,
        "v_grand": record.v_grand,
        "c_star": record.c_star,
        "players": players,
        "checks": _check_instance(
            game,
            payoff={p.player_id: p.payoff for p in record.players},
            payment={p.player_id: p.payment for p in record.players},
            revenue={p.player_id: p.r_hat for p in record.players},
            capacity=record.c_star,
        ),
    }


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _records_csv_text(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        for p in rec.players:
            writer.writerow(
                [
                    rec.scenario,
                    rec.sweep_param,
                    _fmt(rec.sweep_value),
                    p.player_id,
                    _fmt(p.beta),
                    _fmt(p.daily_load),
                    _fmt(p.h_star),
                    _fmt(rec.c_star),
                    _fmt(p.r_hat),
                    _fmt(p.shapley),
                    _fmt(p.payment),
                    _fmt(p.payoff),
                    _fmt(rec.v_grand),
                ]
            )
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
@click.option("--seed", type=int, default=None, help="Random seed (overrides the config).")
@click.option(
    "--method",
    type=click.Choice([m.value for m in ShapleyMethod]),
    default=None,
    help="Shapley method (overrides the config).",
)
def run(config, out_dir, strict, seed, method):
    """Solve the configured scenario and write records.csv, summary.json, meta.json.

    CONFIG is a preset name, a JSON file path, or inline JSON.
    """
    try:
        cfg = _load_config(config)
        if out_dir is not None:
            cfg = replace(cfg, out_dir=out_dir)
        if seed is not None:
            if seed < 0:
                raise ConfigError(f"option '--seed' must be >= 0, got {seed!r}")
            cfg = replace(cfg, seed=seed)
        if method is not None:
            cfg = replace(cfg, method=ShapleyMethod(method))
        groups = _build_groups(cfg)
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc

    records = []
    summaries = []
    try:
        for label, param, values, games in groups:
            recs = run_sweep(
                games,
                scenario=label,
                sweep_param=param,
                sweep_values=values,
                method=cfg.method,
                samples=cfg.samples,
                seed=cfg.seed,
            )
            records.extend(recs)
            summaries.extend(_summarize(game, rec) for game, rec in zip(games, recs))
    except (ValueError, RuntimeError) as exc:
        raise click.ClickException(str(exc)) from exc

    failures = [
        (i, name, outcome)
        for i, summary in enumerate(summaries)
        for name, outcome in summary["checks"].items()
        if outcome.startswith("fail")
    ]
    meta = {
        "tool": "coinvest",
        "version": __version__,
        "seed": cfg.seed,
        "strict": bool(strict),
        "config": config_to_dict(cfg),
        "load_clamping_applied": clamping_applied(cfg.load_spec),
        "instances": len(records),
    }
    summary_doc = {
        "instances": summaries,
        "all_checks_passed": not failures,
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
    balance. CONFIG is a preset name, a JSON file path, or inline JSON.
    """
    try:
        cfg = _load_config(config)
        groups = _build_groups(cfg)
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc

    games = [game for _, _, _, group in groups for game in group]
    outcomes = []
    for k, game in enumerate(games):
        settlement = settle(game, shapley_closed_form(game).payoffs)
        checks = _check_instance(
            game,
            settlement.payoff,
            settlement.payment,
            settlement.revenue,
            settlement.allocation.C,
        )
        checks["oracle_triangle"] = _check_oracles(game, cfg.samples, cfg.seed + k)
        outcomes.append(checks)
    failed = False
    for name, key in VERIFY_PROPERTIES:
        results = [checks[key] for checks in outcomes]
        detail = f"{results.count('pass')}/{len(results)} instances"
        fails = [(k, r) for k, r in enumerate(results) if r.startswith("fail")]
        if fails:
            k, reason = fails[0]
            detail += f"; instance {k}: {reason.removeprefix('fail: ')}"
        click.echo(f"{name:<22} {'FAIL' if fails else 'PASS'}  ({detail})")
        failed = failed or bool(fails)
    if failed:
        raise SystemExit(EXIT_CHECK_FAILED)


def _check_oracles(game, samples: int, seed: int) -> str:
    """Agreement of the three Shapley routes on one instance."""
    n = len(game.players)
    if n > MAX_ENUMERATION_PLAYERS:
        return _too_many(n)
    exact = shapley_enumeration(game).payoffs
    closed = shapley_closed_form(game).payoffs
    for pid in game.players:
        if _rel_err(closed[pid], exact[pid]) > AGREEMENT_TOL:
            return f"fail: closed form vs enumeration diverges for {pid}"
    sampled = shapley_sampling(game, samples, seed)
    for pid in game.players:
        if not math.isfinite(sampled.stderr[pid]):
            return f"fail: sampling stderr is not finite for {pid}"
        margin = SAMPLING_SIGMAS * sampled.stderr[pid] + AGREEMENT_TOL * max(1.0, abs(exact[pid]))
        if abs(sampled.payoffs[pid] - exact[pid]) > margin:
            return f"fail: sampling off by more than {SAMPLING_SIGMAS:g} standard errors for {pid}"
    return "pass"


@main.command()
def presets():
    """List the configuration presets shipped with the package."""
    for name in preset_names():
        cfg = parse_config(load_preset(name))
        click.echo(f"{name:<8} {cfg.scenario:<12} {cfg.description}")


if __name__ == "__main__":
    main()
