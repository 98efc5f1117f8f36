"""Which modules each command loads, and what its process holds at exit.

Every test here but the library one starts a fresh interpreter, which runs
``python -m coinvest`` on a command line and reports from an atexit hook:
the modules it loaded, its threads or the objects it froze out of the
collector. A module that comes back onto a command's import path, such as
numpy, argparse or the exact oracle on ``run``'s, costs every process that
runs the command.
"""

import json
import os
import sys

import pytest

import coinvest
import coinvest.cli as cli_mod
import coinvest.game
import coinvest.oracle
import coinvest.sampling
import coinvest.shapley

from conftest import OVER_BUDGET, fresh_interpreter, load_bench_module

def _click_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name == "click" or name.startswith("click.")}


# the help renderer, which a valid command line never loads, and the modules
# an argparse parser loads (argparse imports gettext, and gettext locale),
# which no command line loads
_PARSER_MODULES = {"argparse", "gettext", "locale", "coinvest._cmdline"}


@pytest.fixture(scope="module")
def bare_modules() -> set[str]:
    """The modules a bare interpreter has loaded when it exits."""
    proc = fresh_interpreter("-c", "import sys; print(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _coinvest_then_print(expression: str) -> str:
    """A ``python -c`` script that runs ``python -m coinvest`` on the arguments
    that follow it, then prints ``expression`` on stderr from an atexit hook
    registered before coinvest loads, so it runs after coinvest's own hooks."""
    return (
        "import atexit, gc, os, runpy, sys\n"
        f"atexit.register(lambda: print({expression}, file=sys.stderr))\n"
        "runpy.run_module('coinvest', run_name='__main__')\n"
    )


# every module the command imported
_LIST_MODULES_AT_EXIT = _coinvest_then_print("*sorted(sys.modules)")
# the number of threads the process holds
_COUNT_THREADS_AT_EXIT = _coinvest_then_print("len(os.listdir('/proc/self/task'))")
# the number of objects frozen out of the collector
_FREEZE_COUNT_AT_EXIT = _coinvest_then_print("gc.get_freeze_count()")


# counts gc.freeze calls, invokes ``coinvest presets`` in-process three times,
# then prints on stderr how often gc.freeze ran at exit
_FREEZE_CALLS_AFTER_THREE_INVOCATIONS = (
    "import atexit, gc, sys\n"
    "calls, freeze = [], gc.freeze\n"
    "gc.freeze = lambda: calls.append(freeze())\n"
    "atexit.register(lambda: print(len(calls), file=sys.stderr))\n"
    "from coinvest.cli import main\n"
    "for _ in range(3):\n"
    "    main.main(['presets'], prog_name='coinvest', standalone_mode=False)\n"
)


_ORACLE, _SAMPLER = "coinvest.oracle", "coinvest.sampling"


@pytest.mark.parametrize(
    "command, loads",
    [
        pytest.param(None, set(), id="import-coinvest"),
        pytest.param(["run", "fig1"], set(), id="run-fig1"),
        pytest.param(["run", 17], set(), id="run-17-players"),
        pytest.param(["run", "fig6", "--method", "sample"], {_SAMPLER}, id="sampled-run-fig6"),
        pytest.param(["verify", "fig1"], {_ORACLE, _SAMPLER}, id="verify-fig1"),
        pytest.param(["verify", "fig6"], {_ORACLE, _SAMPLER}, id="verify-fig6"),
        pytest.param(["verify", 22], {_SAMPLER}, id="verify-22-players"),
    ],
)
def test_the_oracle_and_the_sampler_load_only_where_they_run(
    command, loads, tmp_path, monkeypatch
):
    # a closed run decides every check structurally; the sampler loads for a
    # sampled run and for every verify, and the oracle for a verify that holds
    # an instance within the enumeration bound against the brute force
    if command is None:
        proc = fresh_interpreter(
            "-c", "import sys, coinvest; print(*sorted(sys.modules), file=sys.stderr)"
        )
    else:
        name, config, *options = command
        if isinstance(config, int):  # the bench's seeded game of that many players
            workloads = load_bench_module(monkeypatch, "workloads")
            config = json.dumps(workloads.custom_game(1, config, 5000))
        out = ["--out", str(tmp_path / "out")] if name == "run" else []
        proc = fresh_interpreter("-c", _LIST_MODULES_AT_EXIT, name, config, *options, *out)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert "coinvest.shapley" in loaded
    assert {_ORACLE, _SAMPLER} & loaded == loads


@pytest.mark.parametrize(
    "command", [["run", "fig1"], ["verify", "fig1"], ["presets"]], ids=" ".join
)
def test_no_command_loads_the_archive_machinery(command, tmp_path):
    # the presets are files beside the package, so reading them needs neither
    # importlib.resources nor the zip and temporary-file modules it imports;
    # -S, since a site .pth file may import them before coinvest does
    out = ["--out", str(tmp_path / "out")] if command[0] == "run" else []
    proc = fresh_interpreter("-S", "-c", _LIST_MODULES_AT_EXIT, *command, *out)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert "coinvest.config" in loaded
    assert not {"importlib.resources", "zipfile", "tempfile", "shutil"} & loaded


# each moved name, the module that defines it, and the modules re-exporting it
_MOVED = {
    "coalition_table": (coinvest.oracle, (coinvest,)),
    "shapley_enumeration": (coinvest.oracle, (coinvest, coinvest.shapley)),
    "check_core": (coinvest.oracle, (coinvest, coinvest.shapley)),
    "check_supermodularity": (coinvest.oracle, (coinvest, coinvest.shapley)),
    "classify_players": (coinvest.oracle, (coinvest, coinvest.shapley)),
    "shapley_sampling": (coinvest.sampling, (coinvest, coinvest.shapley)),
}


def test_the_library_api_resolves_every_name():
    listed = dir(coinvest)
    for name in coinvest.__all__:
        assert name in listed, name
        assert getattr(coinvest, name) is not None, name
    for name, (home, exporters) in _MOVED.items():
        defined = vars(home)[name]
        assert defined.__module__ == home.__name__, name
        for module in exporters:
            assert getattr(module, name) is defined, (module.__name__, name)
    from coinvest.shapley import check_core

    assert check_core is coinvest.oracle.check_core
    for module in (coinvest, coinvest.game, coinvest.shapley):
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute"):
            module.no_such_name


class TestModulesLoaded:
    """numpy, the help renderer and OpenBLAS's workers load only where a
    command needs them."""

    def test_numpy_is_loaded_only_where_it_is_used(self, tmp_path, bare_modules):
        wide = json.dumps(
            {
                "scenario": "custom",
                "custom_sps": [
                    {"id": f"SP{k:02d}", "beta": 2e-6, "daily_total": 5e5} for k in range(20)
                ],
            }
        )
        for args, numpy in (
            (["run", "fig1", "--out", str(tmp_path / "fig1")], False),
            (["run", wide, "--out", str(tmp_path / "wide")], False),
            (["presets"], False),
        ):
            proc = fresh_interpreter("-c", _LIST_MODULES_AT_EXIT, *args)
            assert proc.returncode == 0, (args, proc.stderr)
            loaded = set(proc.stderr.split())
            assert "coinvest.shapley" in loaded, args
            assert ("numpy" in loaded) is numpy, args
            # building dataclasses costs start-up time; the model is named tuples
            assert "dataclasses" not in loaded, args
            assert not _click_modules(loaded), args
            # only help and usage errors are rendered
            assert not (_PARSER_MODULES & loaded) - bare_modules, args

    def test_sampled_run_loads_no_numpy_but_verify_does(self, tmp_path, bare_modules):
        # the sampler draws its orders with the standard library's MT19937, so
        # a sampled run loads no numpy; verify loads it for the exact tables of
        # a config past the budget for tuple tables, and for no preset, but
        # never numpy.random, which imports secrets, hmac and hashlib
        # (OpenSSL: ~6 MB of resident memory)
        assert 17 << 17 > cli_mod.LIST_TABLE_BUDGET
        one_instance = json.dumps({"l_total_grid": [2e6], "samples": 5000})
        for args, numpy in (
            (["verify", "fig1"], False),
            (["verify", "fig6"], False),
            (["verify", OVER_BUDGET], True),
            (["run", one_instance, "--method", "sample", "--out", str(tmp_path / "s")], False),
            (["run", "fig6", "--method", "sample", "--out", str(tmp_path / "fig6")], False),
        ):
            proc = fresh_interpreter("-c", _LIST_MODULES_AT_EXIT, *args)
            assert proc.returncode == 0, (args, proc.stderr)
            loaded = set(proc.stderr.split())
            assert "coinvest.shapley" in loaded, args
            assert ("numpy" in loaded) is numpy, args
            assert not {"numpy.random", "hashlib", "dataclasses"} & loaded, args
            assert not _click_modules(loaded), args
            assert not (_PARSER_MODULES & loaded) - bare_modules, args

    def test_help_loads_the_renderer(self, bare_modules):
        # the other side of the two tests above: help and usage errors load
        # the renderer, which lays the text out from the option rows itself
        for args, code in ((["run", "--help"], 0), ([], 1), (["run", "fig1", "--bogus"], 1)):
            proc = fresh_interpreter("-c", _LIST_MODULES_AT_EXIT, *args)
            assert proc.returncode == code, (args, proc.stderr)
            assert "Usage: coinvest" in proc.stdout + proc.stderr, (args, proc.stderr)
            loaded = set(proc.stderr.split())
            assert "coinvest._cmdline" in loaded, args
            assert not ({"argparse", "gettext", "locale"} & loaded) - bare_modules, args

    @pytest.mark.skipif(
        not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
        reason="reads /proc/self/task; OpenBLAS starts no worker on one CPU",
    )
    def test_numpy_runs_one_blas_thread_unless_told_otherwise(self):
        # no command makes a BLAS call, and an idle OpenBLAS worker spins on
        # the CPU; only a verify past the budget for tuple tables loads numpy
        unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        for env, threads in ((unset, 1), ({**unset, "OPENBLAS_NUM_THREADS": "2"}, 2)):
            proc = fresh_interpreter(
                "-c", _COUNT_THREADS_AT_EXIT, "verify", OVER_BUDGET, env=env
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            counted = proc.stderr.split()[-1]
            assert counted == str(threads), (env.get("OPENBLAS_NUM_THREADS"), proc.stderr)


class TestExitPath:
    """Every process freezes the collector at exit, with one hook however
    often it invokes the CLI."""

    def test_the_collector_is_frozen_at_exit(self, tmp_path):
        # the final collections skip frozen objects, which the OS reclaims anyway
        proc = fresh_interpreter(
            "-c", _FREEZE_COUNT_AT_EXIT, "run", "fig1", "--out", str(tmp_path / "fig1")
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stderr.split()[-1]) > 0, proc.stderr

    def test_in_process_invocations_leave_one_freeze_hook(self):
        proc = fresh_interpreter("-c", _FREEZE_CALLS_AFTER_THREE_INVOCATIONS)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("fig1") == 3, proc.stdout
        assert proc.stderr == "1\n"
