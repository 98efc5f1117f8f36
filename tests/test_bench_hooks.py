"""The names the traced benchmark wraps must exist in the program.

``bench/spans.py`` replaces every module binding of the functions named in
its ``WRAPPED`` table, plus ``coinvest.game.coalition_value``, for the length
of a traced run. A rename in ``src`` would only show up when that run fails,
so this reads the table from the file (parsed, not imported) and resolves
every name on its home module. The workloads' configs must also stay
inside the config's caps.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import coinvest.cli
from coinvest.config import config_from_dict

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


def test_every_workload_config_is_accepted(monkeypatch):
    # bench/workloads.py imports only the standard library; its dataclass
    # needs the module registered while it loads, and bench/ gets no bytecode
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for seed in (0, 1, 7):
            jobs = workloads.make_jobs(name, seed, ROOT)
            assert jobs, name
            for job in jobs:
                config_from_dict(job.config)
