"""Compare two result sets from ``suite.py``: parent (BASE) against change (NEW).

Usage:

    python3 bench/compare.py BASE.json NEW.json [--steady]

For every workload and end-to-end metric it prints each side's median and
quartiles over the untraced runs and one verdict:

* ``better``: the change wins at least 9 of every 10 pairs (same seed, ties
  count for neither), over at least 10 pairs, and the medians differ by more
  than the distance between the parent's quartiles;
* ``WORSE``: the change's median is worse than the parent's by more than the
  metric's bound;
* ``unresolved``: either side's spread (quartile distance over median) is
  wider than the bound, unless every run of the change beats every run of
  the parent;
* ``within bound``: none of the above.

Per-layer metrics from the traced runs are listed with their medians and
ratio, without a verdict. The exit code is 1 when any metric is WORSE or the
change fails more invocations than the parent. With ``--steady`` (two result
sets of one commit), it is also 1 when a metric other than ``setup_s`` is
unresolved or has a spread wider than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_seed(result_set: dict, workload: str, trace: int, metric: str) -> dict[int, float]:
    out = {}
    for run in result_set["runs"]:
        result = run["result"]
        if run["workload"] == workload and run["trace"] == trace and result:
            if metric in result["metrics"]:
                out[run["seed"]] = result["metrics"][metric]["value"]
    return out


def failures(result_set: dict, workload: str) -> tuple[int, int]:
    """(failed invocations, runs without a result) of one workload."""
    failed = broken = 0
    for run in result_set["runs"]:
        if run["workload"] == workload:
            if run["result"] is None:
                broken += 1
            else:
                failed += run["result"]["failed"]
    return failed, broken


def verdict(base: dict[int, float], new: dict[int, float], spec: dict) -> tuple[str, dict]:
    sign = 1.0 if spec["better"] == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    n_q1, n_med, n_q3 = quartiles(list(new.values()))
    spread_b = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    spread_n = (n_q3 - n_q1) / abs(n_med) if n_med else 0.0
    worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (new[s] - base[s]) < 0)
    stats = {
        "base": (b_q1, b_med, b_q3), "new": (n_q1, n_med, n_q3),
        "spread": (spread_b, spread_n), "worse": worse, "wins": wins, "pairs": len(seeds),
    }
    bound = spec["bound"]
    all_better = max(sign * v for v in new.values()) < min(sign * v for v in base.values())
    if spread_b > bound or spread_n > bound:
        return ("better" if all_better else "unresolved"), stats
    if worse > bound:
        return "WORSE", stats
    if (len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds)
            and abs(n_med - b_med) > b_q3 - b_q1):
        return "better", stats
    return "within bound", stats


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--steady", action="store_true",
                        help="both sets measure one commit: also fail on unresolved or wide spreads")
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text(encoding="utf-8"))
    new = json.loads(args.new.read_text(encoding="utf-8"))
    spec = new["env"]["benchmark"]
    print(f"base: {base['env']['label']}  new: {new['env']['label']}  "
          f"({new['env']['cpu_model']}, nproc {new['env']['nproc']})")

    bad = []
    for workload in (w["name"] for w in spec["workloads"]):
        present = [any(r["workload"] == workload for r in rs["runs"]) for rs in (base, new)]
        if not any(present):
            continue
        print(f"\n== {workload}")
        if not all(present):
            bad.append(f"{workload}: measured in one result set only")
            continue
        b_fail, n_fail = failures(base, workload), failures(new, workload)
        if n_fail[0] > b_fail[0] or n_fail[1] > b_fail[1]:
            bad.append(f"{workload}: failures {b_fail} -> {n_fail} (failed invocations, runs)")
        print(f"{'metric':<14} {'base median [q1, q3]':<30} {'new median [q1, q3]':<30} "
              f"{'change':>8} {'wins':>7}  verdict")
        for metric in spec["end_to_end"]:
            b_vals = by_seed(base, workload, 0, metric["name"])
            n_vals = by_seed(new, workload, 0, metric["name"])
            if not b_vals or not n_vals:
                bad.append(f"{workload}/{metric['name']}: no runs")
                continue
            word, st = verdict(b_vals, n_vals, metric)
            b, n = st["base"], st["new"]
            change = (n[1] - b[1]) / b[1] if b[1] else 0.0
            wins = f"{st['wins']}/{st['pairs']}"
            print(f"{metric['name']:<14} {_fmt(b):<30} {_fmt(n):<30} {change:>+8.1%} {wins:>7}  "
                  f"{word}  (spread {st['spread'][0]:.1%} / {st['spread'][1]:.1%}, "
                  f"bound {metric['bound']:.0%})")
            if word == "WORSE":
                bad.append(f"{workload}/{metric['name']}: worse by {st['worse']:.1%}")
            # setup_s times short fresh imports; its spread is not held to the
            # bound, only its median is.
            if args.steady and metric["name"] != "setup_s":
                if word == "unresolved":
                    bad.append(f"{workload}/{metric['name']}: unresolved")
                wide = max(st["spread"])
                if wide > metric["bound"]:
                    bad.append(f"{workload}/{metric['name']}: spread {wide:.1%} over bound")
        for metric in spec["per_layer"]:
            b_vals = by_seed(base, workload, 1, metric["name"])
            n_vals = by_seed(new, workload, 1, metric["name"])
            if b_vals and n_vals:
                b_med = statistics.median(b_vals.values())
                n_med = statistics.median(n_vals.values())
                ratio = f"x{n_med / b_med:.3f}" if b_med else "-"
                print(f"  {metric['name']:<30} {b_med:<12.5g} {n_med:<12.5g} {ratio:>8} "
                      f"{metric['unit']}")
    if bad:
        print("\nREGRESSIONS / PROBLEMS:")
        for line in bad:
            print(f"  {line}")
        return 1
    print("\nno regression beyond any bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
