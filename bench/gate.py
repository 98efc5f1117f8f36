"""Output gate: decides whether one CLI invocation produced correct output.

Each check returns a list of problems; an empty list means the invocation
passed. The runner counts an invocation as failed when its exit code is not
0 or any problem is found.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from pathlib import Path

VERIFY_PROPERTIES = ("supermodularity", "core-membership", "oracle-triangle", "settlement-balance")
FLOAT_COLUMNS = (
    "sweep_value", "beta", "daily_load", "h_star", "C_star", "r_hat", "shapley",
    "payment", "payoff", "v_grand",
)
EXACT_METHODS = ("closed", "enum")
# The relative tolerance the CLI itself applies between exact payoff routes.
REL_TOL = 1e-9

_VERIFY_LINE = re.compile(r"^(\S+)\s+(PASS|FAIL)\s+\((.*)\)$")
_CHECKED = re.compile(r"^(\d+)/(\d+) instances$")


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= REL_TOL * max(1.0, abs(ref))


def check_records(text: str, exact: bool) -> list[str]:
    """Every float finite; payoffs sum to v_grand; the owner gets v_grand / 2."""
    problems = []
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return ["records.csv has no rows"]
    instance: list[dict] = []
    for line, row in enumerate(rows, start=2):
        for col in FLOAT_COLUMNS:
            try:
                value = float(row[col])
            except (KeyError, TypeError, ValueError):
                problems.append(f"records.csv line {line}: column {col} is not a number")
                continue
            if not math.isfinite(value):
                problems.append(f"records.csv line {line}: {col} = {row[col]}")
        instance.append(row)
        if row["player_id"] != "NO":
            continue
        # The owner closes each instance's block of rows.
        try:
            v_grand = float(row["v_grand"])
            paid = math.fsum(float(r["payoff"]) for r in instance)
            owner = float(row["payoff"])
        except ValueError:
            instance = []
            continue
        if not _close(paid, v_grand):
            problems.append(f"records.csv line {line}: payoffs sum to {paid!r}, v_grand {v_grand!r}")
        if exact and not _close(owner, v_grand / 2.0):
            problems.append(f"records.csv line {line}: owner payoff {owner!r} is not v_grand/2")
        instance = []
    if instance:
        problems.append("records.csv ends inside an instance (no NO row)")
    return problems


def check_summary(text: str) -> tuple[list[str], int, int]:
    """No check reads ``fail``; returns problems, checks run, checks skipped.

    A check that turns from ``skipped`` into a pass counts as one more run.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"summary.json is not valid JSON: {exc}"], 0, 0
    problems = []
    ran = skipped = 0
    for k, inst in enumerate(doc.get("instances", [])):
        for name, outcome in sorted(inst.get("checks", {}).items()):
            if str(outcome).startswith("fail"):
                problems.append(f"summary.json instance {k}: {name}: {outcome}")
            elif str(outcome).startswith("skipped"):
                skipped += 1
            else:
                ran += 1
    return problems, ran, skipped


def check_run_outputs(out_dir: Path, exact: bool) -> tuple[list[str], str, int, int, int]:
    """Gate the files of one ``run``.

    Returns problems, the records.csv text, checks run, checks skipped and
    the total bytes of the three output files.
    """
    try:
        records = (out_dir / "records.csv").read_text(encoding="utf-8")
        summary = (out_dir / "summary.json").read_text(encoding="utf-8")
        meta = (out_dir / "meta.json").read_text(encoding="utf-8")
    except OSError as exc:
        return [f"missing output: {exc}"], "", 0, 0, 0
    problems = check_records(records, exact)
    summary_problems, ran, skipped = check_summary(summary)
    problems += summary_problems
    size = sum(len(t.encode("utf-8")) for t in (records, summary, meta))
    return problems, records, ran, skipped, size


def check_verify_stdout(stdout: str) -> tuple[list[str], int, int]:
    """All four property lines read PASS; returns problems, checked, skipped."""
    seen = {}
    for line in stdout.splitlines():
        match = _VERIFY_LINE.match(line.strip())
        if match:
            seen[match.group(1)] = (match.group(2), match.group(3))
    problems = []
    ran = skipped = 0
    for name in VERIFY_PROPERTIES:
        if name not in seen:
            problems.append(f"verify printed no {name} line")
            continue
        verdict, detail = seen[name]
        if verdict != "PASS":
            problems.append(f"verify: {name} {verdict} ({detail})")
            continue
        counted = _CHECKED.match(detail)
        if counted:
            ran += int(counted.group(1))
            skipped += int(counted.group(2)) - int(counted.group(1))
    return problems, ran, skipped


def check_sampled(payoffs: dict, stderr: dict, exact: dict) -> list[str]:
    """Sampled payoffs within the 4-sigma gate ``coinvest verify`` applies."""
    problems = []
    for pid, ref in exact.items():
        margin = 4.0 * stderr[pid] + REL_TOL * max(1.0, abs(ref))
        if abs(payoffs[pid] - ref) > margin:
            problems.append(
                f"sampled payoff of {pid} is {payoffs[pid]!r}, closed form {ref!r}, "
                f"stderr {stderr[pid]!r}"
            )
    return problems
