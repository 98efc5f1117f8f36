"""Run the benchmark over many seeds and save a result set for ``compare.py``.

Usage, from the root of the checkout that holds this benchmark:

    python3 bench/suite.py --out bench/results/NAME.json
    python3 bench/suite.py --checkout PARENT --out parent.json \\
                           --checkout .      --out change.json

For each seed and workload it makes one untraced run (and, for the first
``--traced-seeds`` seeds, one traced run) of ``run.py`` with the run length
fixed in ``BENCHMARK.json``. Given two checkouts it measures both with this
same benchmark code, one run of each per pair, alternating which goes
first. Each result set records the environment it was measured in and is
rewritten after every run, so an interrupted suite keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(checkout: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def environment(checkout: Path, label: str | None, seeds: list[int]) -> dict:
    versions = {}
    for package in ("numpy", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    commit = _commit(checkout)
    return {
        "label": label or (commit[:12] if commit else checkout.name),
        "commit": commit,
        "seeds": seeds,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "benchmark": SPEC,
    }


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
    notes = [line for line in lines if line.startswith("#")]
    return {"workload": workload, "seed": seed, "trace": trace,
            "returncode": proc.returncode, "result": result, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", action="append", type=Path,
                        help="checkout to measure (default: the current directory); repeatable")
    parser.add_argument("--out", action="append", type=Path, required=True,
                        help="result-set file, one per --checkout")
    parser.add_argument("--label", action="append", help="name of each result set")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced-seeds", type=int, default=3)
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: all); repeatable")
    args = parser.parse_args(argv)
    checkouts = [c.resolve() for c in (args.checkout or [Path.cwd()])]
    if len(args.out) != len(checkouts):
        parser.error("give one --out per --checkout")
    labels = args.label or [None] * len(checkouts)
    if len(labels) != len(checkouts):
        parser.error("give one --label per --checkout")
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    seeds = list(range(1, args.seeds + 1))

    sets = [{"env": environment(c, l, seeds), "runs": []} for c, l in zip(checkouts, labels)]
    pair = 0
    for index, seed in enumerate(seeds):
        for workload in workloads:
            for trace in (0, 1) if index < args.traced_seeds else (0,):
                # Alternate which checkout goes first from one pair to the next.
                order = list(range(len(checkouts)))
                if pair % 2:
                    order.reverse()
                for position, k in enumerate(order):
                    run = run_once(checkouts[k], workload, seed, trace)
                    run.update(pair=pair, position=position)
                    sets[k]["runs"].append(run)
                    args.out[k].parent.mkdir(parents=True, exist_ok=True)
                    args.out[k].write_text(json.dumps(sets[k], indent=1) + "\n", encoding="utf-8")
                    status = "ok" if run["result"] and run["result"]["correct"] else "FAILED"
                    print(f"{sets[k]['env']['label']:<14} {workload:<16} seed {seed:<4} "
                          f"trace {trace} {status}", flush=True)
                pair += 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
