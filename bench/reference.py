"""Capture ``reference.json``: the sha256 of every exact-method ``records.csv``.

Usage, from the root of a checkout of the commit whose output is the
reference:

    python3 bench/reference.py

Runs each exact-method job of every workload at ``DEFAULT_SEED`` through
``python3 -m coinvest run`` and records the digest of its ``records.csv``
under the job's reference key. ``run.py`` then requires byte-identical output
from every job whose key is listed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import gate
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd().resolve()
    if not (root / "src" / "coinvest" / "cli.py").is_file():
        print(f"error: {root} holds no coinvest source (src/coinvest)", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out_dir = root / ".bench_work" / "reference"
    reference = {}
    try:
        for workload in WORKLOADS:
            for job in make_jobs(workload, DEFAULT_SEED, root):
                if job.method not in gate.EXACT_METHODS:
                    continue
                argv = [sys.executable, "-m", "coinvest", "run", job.inline,
                        "--out", str(out_dir), *job.run_args]
                subprocess.run(argv, env=env, cwd=root, check=True, capture_output=True)
                records = (out_dir / "records.csv").read_bytes()
                digest = hashlib.sha256(records).hexdigest()
                reference[job.reference_key] = {"job": f"{workload}/{job.name}", "sha256": digest}
                print(f"{workload:<16} {job.name:<12} {digest}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    text = json.dumps(reference, indent=2, sort_keys=True) + "\n"
    (BENCH_DIR / "reference.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
