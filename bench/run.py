"""Run one workload of the coinvest benchmark and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload presets --seed 1 --seconds 40 --trace 0

One single-threaded client runs a closed loop with one ``coinvest``
process at a time, each config getting one ``run`` and one ``verify``.

* ``--trace 0`` times the CLI as a user runs it (``python3 -m coinvest`` in
  a fresh process per invocation) in rounds over the workload's configs
  until ``--seconds`` is used, and reports the end-to-end metrics: medians
  over rounds.
* ``--trace 1`` calls ``coinvest.cli.main`` in-process, alternating an
  untraced pass and a traced pass over the configs, and reports per-layer
  metrics from the spans of the traced passes (medians over passes).

Every invocation goes through the output gate (``gate.py``). The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import gate
from spans import WRAPPED, Patch, Recorder
from workloads import WORKLOADS, Job, make_jobs

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
# Each untraced run makes at least this many rounds: the second one is the
# same-seed rerun that records.csv must reproduce byte for byte.
MIN_ROUNDS = 2
# Fresh imports timed per run for setup_s and the probe: one after each
# invocation, so that they are spread over the run, and at least this many.
SETUP_REPEATS = 15
# Each fresh import first takes the interpreter start and the numpy and
# click imports (no coinvest code): the host-speed probe. Then coinvest.cli.
SETUP_CODE = ("import time, numpy, click; t = time.perf_counter(); import coinvest.cli; "
              "print(repr(t), repr(time.perf_counter()))")
# The host's speed drifts by up to 25% over minutes, and all timings drift
# with it. wall_s, run_s and verify_s are therefore reported at a reference
# host speed: measured seconds times PROBE_REF_S / (median probe of the run).
# PROBE_REF_S is the probe's median on a 2-vCPU Intel Xeon VM, so reported
# times are close to the measured ones there.
PROBE_REF_S = 0.14
# Relative precision that shapley.sample.s_to_1pct extrapolates to.
TARGET_RSE = 0.01


class Checker:
    """Applies the output gate and keeps the run's failure and check counts."""

    def __init__(self, reference: dict[str, dict]):
        self.reference = reference
        self.first_records: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks_run = 0
        self.checks_skipped = 0
        self.output_bytes = 0

    def _count(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def counts(self) -> dict[str, int]:
        return {
            "cli.checks_run": self.checks_run,
            "cli.checks_skipped": self.checks_skipped,
            "cli.output_bytes": self.output_bytes,
        }

    def after_run(self, job: Job, out_dir: Path, code: int, stderr: str, extra=()) -> None:
        if code != 0:
            self._count(f"{job.name} run", [f"exit code {code}: {stderr.strip()[-300:]}"])
            return
        exact = job.method in gate.EXACT_METHODS
        problems, records, ran, skipped, size = gate.check_run_outputs(out_dir, exact)
        problems += extra
        first = self.first_records.setdefault(job.name, records)
        if records != first:
            problems.append("records.csv differs from the same-seed run before it")
        expected = self.reference.get(job.reference_key) if exact else None
        if expected and hashlib.sha256(records.encode()).hexdigest() != expected["sha256"]:
            problems.append("records.csv differs from the reference captured at the seed commit")
        self.checks_run += ran
        self.checks_skipped += skipped
        self.output_bytes += size
        self._count(f"{job.name} run", problems)

    def after_verify(self, job: Job, code: int, stdout: str, stderr: str, extra=()) -> None:
        problems, ran, skipped = gate.check_verify_stdout(stdout)
        problems += extra
        if code != 0:
            problems.insert(0, f"exit code {code}: {stderr.strip()[-300:]}")
        self.checks_run += ran
        self.checks_skipped += skipped
        self._count(f"{job.name} verify", problems)


def _median(values) -> float:
    return float(statistics.median(values))


def _spawn(argv: list[str], env: dict, root: Path, work: Path) -> tuple[float, int, str, str, int]:
    """Run one child to completion: seconds, exit code, stdout, stderr, max RSS in KiB."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=root)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return seconds, proc.returncode, stdout, stderr, usage.ru_maxrss


def time_setup(env: dict, root: Path, work: Path) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until numpy and click are
    imported (the probe) and until ``import coinvest.cli`` returns."""
    t0 = perf_counter()
    _, code, stdout, stderr, _ = _spawn([sys.executable, "-c", SETUP_CODE], env, root, work)
    if code != 0:
        raise RuntimeError(f"importing coinvest.cli failed: {stderr.strip()[-300:]}")
    probed, imported = (float(t) for t in stdout.split())
    return probed - t0, imported - t0


def untraced(jobs: list[Job], seconds: float, root: Path, work: Path, checker: Checker) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cli = [sys.executable, "-m", "coinvest"]
    rounds = []  # (run seconds, verify seconds) per round
    peak_kib = 0
    start = perf_counter()
    time_setup(env, root, work)  # compiles bytecode on a fresh checkout
    setup = []
    while True:
        run_s = verify_s = 0.0
        for job in jobs:
            out_dir = work / "out" / job.name
            argv = cli + ["run", job.inline, "--out", str(out_dir), *job.run_args]
            took, code, _, stderr, rss = _spawn(argv, env, root, work)
            checker.after_run(job, out_dir, code, stderr)
            run_s += took
            peak_kib = max(peak_kib, rss)
            setup.append(time_setup(env, root, work))
            took, code, stdout, stderr, rss = _spawn(cli + ["verify", job.inline], env, root, work)
            checker.after_verify(job, code, stdout, stderr)
            verify_s += took
            peak_kib = max(peak_kib, rss)
            setup.append(time_setup(env, root, work))
        rounds.append((run_s, verify_s))
        elapsed = perf_counter() - start
        typical = elapsed / len(rounds)
        pending = max(0, SETUP_REPEATS - len(setup)) * _median(s for _, s in setup)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical + pending > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup(env, root, work))
    probe = _median(p for p, _ in setup)
    measured = {
        "wall_s": _median(r + v for r, v in rounds),
        "run_s": _median(r for r, _ in rounds),
        "verify_s": _median(v for _, v in rounds),
    }
    print(f"# {len(rounds)} rounds of {len(jobs)} configs x (run + verify); "
          f"setup and probe over {len(setup)} fresh imports")
    print(f"# probe {probe:.6g} s; measured " + ", ".join(
        f"{name} {value:.6g} s" for name, value in measured.items()))
    return {
        **{name: value * PROBE_REF_S / probe for name, value in measured.items()},
        "setup_s": _median(s for _, s in setup),
        "peak_rss_mb": peak_kib / 1024.0,
        "ok_frac": 1.0 - checker.failed / max(1, checker.attempted),
    }


def _call_cli(cli, args: list[str]) -> tuple[int, str, str]:
    """Invoke the click group in-process; returns exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="coinvest", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a ClickException or a crash: both fail the gate
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = getattr(exc, "exit_code", 1)
    return code, out.getvalue(), err.getvalue()


def _in_process_pass(cli, jobs, work, checker, recorder=None) -> float:
    """One run + verify per job in-process; returns seconds spent inside the CLI.

    With a recorder, every sampled payoff vector is also held to the 4-sigma
    gate against the closed form, using the stderr the sampler reported.
    """
    closed_form = inspect.unwrap(cli.shapley_closed_form)
    wall = 0.0
    for job in jobs:
        out_dir = work / "out" / job.name
        for command, args in (
            ("run", ["run", job.inline, "--out", str(out_dir), *job.run_args]),
            ("verify", ["verify", job.inline]),
        ):
            seen = 0
            if recorder is not None:
                recorder.begin_invocation(f"{job.name}/{command}")
                seen = len(recorder.samples)
            t0 = perf_counter()
            code, stdout, stderr = _call_cli(cli, args)
            wall += perf_counter() - t0
            extra = []
            for _, game, result in recorder.samples[seen:] if recorder else ():
                exact = closed_form(game).payoffs
                extra += gate.check_sampled(result.payoffs, result.stderr, exact)
            if command == "run":
                checker.after_run(job, out_dir, code, stderr, extra)
            else:
                checker.after_verify(job, code, stdout, stderr, extra)
    return wall


def _outermost(rec: Recorder, names) -> tuple[float, int]:
    """Total seconds and calls of spans in ``names``, nested ones counted once."""
    names = set(names)
    seconds, calls = 0.0, 0
    for span in rec.spans:
        if span.name in names:
            calls += 1
            if span.parent is None or rec.spans[span.parent].name not in names:
                seconds += span.duration
    return seconds, calls


def layer_metrics(rec: Recorder, wall: float) -> dict:
    """Per-layer metrics of one traced pass."""
    m = {}
    wrapped = {f"{layer}.{name}" for layer, names in WRAPPED.items() for name in names}
    m["config.parse_s"] = _outermost(rec, {n for n in wrapped if n.startswith("config.")})[0]
    builders = {n for n in wrapped if n.startswith("scenarios.") and n != "scenarios.run_sweep"}
    m["scenarios.build_s"] = _outermost(rec, builders)[0]
    m["scenarios.sweep_self_s"] = sum(
        s.duration - s.child for s in rec.spans if s.name == "scenarios.run_sweep"
    )

    calls = sum(v.calls for v in rec.values.values())
    m["game.value_calls"] = calls
    m["game.value_s"] = sum(v.total for v in rec.values.values())
    instances = {(s.instance, s.n) for s in rec.spans if s.instance is not None}
    instances |= {(inst, v.n) for inst, v in rec.values.items()}
    for suffix, command in (("", None), (".run", "run"), (".verify", "verify")):
        chosen = [
            (inst, n) for inst, n in instances
            if command is None
            or rec.invocations[int(inst.split(":")[0])].endswith("/" + command)
        ]
        made = sum(rec.values[i].calls for i, _ in chosen if i in rec.values)
        m[f"shapley.table_rebuilds{suffix}"] = made / max(1, sum(2 ** n for _, n in chosen))

    for short, name in (("core", "check_core"), ("classify", "classify_players"),
                        ("enum", "shapley_enumeration"), ("supermod", "check_supermodularity")):
        seconds, count = _outermost(rec, {f"shapley.{name}"})
        m[f"shapley.{short}_s"] = seconds
        m[f"shapley.{short}_calls"] = count

    sample_s = perms = to_target = 0.0
    rse_max = 0.0
    for index, game, result in rec.samples:
        took = rec.spans[index].duration
        sample_s += took
        perms += result.sample_count
        rse = max(
            (result.stderr[p] / abs(v) for p, v in result.payoffs.items() if v != 0.0),
            default=0.0,
        )
        rse_max = max(rse_max, rse)
        to_target += took * (rse / TARGET_RSE) ** 2
    m["shapley.sample_s"] = sample_s
    m["shapley.sample.perms"] = perms
    m["shapley.sample.perms_per_s"] = perms / sample_s if sample_s else 0.0
    m["shapley.sample.rse_max"] = rse_max
    m["shapley.sample.s_to_1pct"] = to_target

    m["game.optima_s"] = _outermost(rec, {"game.optimal_allocation_single"})[0]
    m["game.revenue_s"] = _outermost(rec, {"game.provider_revenue"})[0]
    m["shapley.closed_s"] = _outermost(rec, {"shapley.shapley_closed_form"})[0]
    m["shapley.settle_s"] = _outermost(rec, {"shapley.settle"})[0]

    self_times = rec.self_times()
    for layer, seconds in self_times.items():
        m[f"{layer}.self_s"] = seconds
    m["trace.wall_s"] = wall
    m["trace.unattributed_frac"] = (wall - sum(self_times.values())) / wall
    return m


def traced(jobs: list[Job], seconds: float, root: Path, work: Path, checker: Checker) -> dict:
    sys.path.insert(0, str(root / "src"))
    import coinvest.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"imported coinvest from {cli.__file__}, not from this checkout")

    plain_walls, passes = [], []
    start = perf_counter()
    while True:
        plain_walls.append(_in_process_pass(cli, jobs, work, checker))
        recorder = Recorder()
        before = checker.counts()
        patch = Patch(recorder, cli)
        try:
            wall = _in_process_pass(cli, jobs, work, checker, recorder)
        finally:
            patch.undo()
        metrics = layer_metrics(recorder, wall)
        metrics.update({k: v - before[k] for k, v in checker.counts().items()})
        passes.append(metrics)
        last = recorder
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    (work / "trace.json").write_text(json.dumps(last.dump()), encoding="utf-8")
    print(f"# {len(passes)} traced and {len(passes)} untraced in-process passes; "
          f"spans of the last traced pass in {work / 'trace.json'}")

    out = {name: _median(p[name] for p in passes) for name in passes[0]}
    out["trace.untraced_wall_s"] = _median(plain_walls)
    out["trace.overhead_frac"] = out["trace.wall_s"] / out["trace.untraced_wall_s"] - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd().resolve()
    if not (root / "src" / "coinvest" / "cli.py").is_file():
        print(f"error: {root} holds no coinvest source (src/coinvest); "
              "run this from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    jobs = make_jobs(args.workload, args.seed, root)
    work = root / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    checker = Checker(reference)
    try:
        measure = traced if args.trace else untraced
        values = measure(jobs, args.seconds, root, work, checker)
    finally:
        shutil.rmtree(work / "out", ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: (float(values[m["name"]]), m["unit"]) for m in listed}
    for problem in checker.problems[:50]:
        print(f"FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:.6g} {unit}")
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": not checker.problems and finite,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
