"""The names the traced benchmark wraps must exist in the program.

``bench/spans.py`` replaces every module binding of the functions named in
its ``WRAPPED`` table, plus ``coinvest.game.coalition_value``, for the length
of a traced run. A rename in ``src`` would only show up when that run fails,
so this reads the table from the file (parsed, not imported) and resolves
every name on its home module. ``bench/run.py`` also reads
``cli.shapley_closed_form`` and runs the CLI in-process through
``cli.main.main(args=, prog_name=, standalone_mode=)``. The
workloads' configs must also stay inside the config's caps, their
exact-method ``records.csv`` must match the digests in ``bench/reference.json``,
and their ``verify`` stdout must pass the bench's gate, ``bench/gate.py``.
"""

import ast
import hashlib
import importlib
import inspect
import json
from pathlib import Path

import coinvest.cli
from coinvest.config import config_from_dict

from conftest import invoke_cli, load_bench_module

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


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
    # bench/run.py unwraps cli.shapley_closed_form as the sampled payoffs'
    # reference, and runs the CLI in-process through cli.main.main(...)
    assert callable(coinvest.cli.shapley_closed_form)
    parameters = inspect.signature(coinvest.cli.main.main).parameters
    assert {"args", "prog_name", "standalone_mode"} <= set(parameters)


def test_every_workload_config_is_accepted(monkeypatch):
    workloads = load_bench_module(monkeypatch, "workloads")
    for name in workloads.WORKLOADS:
        for seed in (0, 1, 7):
            jobs = workloads.make_jobs(name, seed, ROOT)
            assert jobs, name
            for job in jobs:
                config_from_dict(job.config)


def test_exact_records_match_the_reference_digests(monkeypatch, tmp_path):
    # the bench fails a run whose records.csv moves by one bit; so does this
    workloads = load_bench_module(monkeypatch, "workloads")
    reference = json.loads((ROOT / "bench" / "reference.json").read_text(encoding="utf-8"))
    checked = []
    for name in workloads.WORKLOADS:
        for job in workloads.make_jobs(name, workloads.DEFAULT_SEED, ROOT):
            if job.method not in ("closed", "enum"):
                continue
            out = tmp_path / name / job.name
            coinvest.cli.main.main(
                args=["run", job.inline, "--out", str(out), *job.run_args],
                prog_name="coinvest",
                standalone_mode=False,
            )
            digest = hashlib.sha256((out / "records.csv").read_bytes()).hexdigest()
            assert digest == reference[job.reference_key]["sha256"], f"{name}/{job.name}"
            checked.append(job.reference_key)
    assert sorted(checked) == sorted(reference)


def test_verify_passes_the_bench_gate(monkeypatch):
    # the bench counts a verify as failed, and lowers ok_frac, unless it exits
    # 0 and its gate finds all four property lines PASS; at the seed the
    # reference was captured at, every workload's verify must get through
    workloads = load_bench_module(monkeypatch, "workloads")
    gate = load_bench_module(monkeypatch, "gate")
    for name in workloads.WORKLOADS:
        for job in workloads.make_jobs(name, workloads.DEFAULT_SEED, ROOT):
            result = invoke_cli(["verify", job.inline])
            problems, _, _ = gate.check_verify_stdout(result.stdout)
            assert (result.exit_code, problems) == (0, []), f"{name}/{job.name}: {result.output}"
