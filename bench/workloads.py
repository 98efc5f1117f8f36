"""Workload definitions: the configs each workload hands to the coinvest CLI.

Every config goes to the program inline as JSON, built only from the
workload name and the seed, so the same seed always gives the same inputs.
Each config (a "job") gets one ``coinvest run`` and one ``coinvest verify``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")

#: Seed at which ``reference.json`` was captured (see ``reference.py``).
DEFAULT_SEED = 0

# Amortized unit price of the default market (d = 0.05, Y = 1, T = 96). In
# that market a provider is active when beta * L > d / (D * xi) = 0.137: the
# active draws give beta * L >= 0.36, the null draw beta * L <= 0.058.
_UNIT_PRICE = 0.05 / (365 * 96)


@dataclass(frozen=True)
class Job:
    """One config of a workload and the extra arguments of its ``run``."""

    name: str
    config: dict
    run_args: tuple[str, ...] = ()

    @property
    def inline(self) -> str:
        return json.dumps(self.config, sort_keys=True)

    @property
    def method(self) -> str:
        if "--method" in self.run_args:
            return self.run_args[self.run_args.index("--method") + 1]
        return self.config.get("method", "closed")

    @property
    def reference_key(self) -> str:
        """Identity of the job's exact-method output, independent of ``seed``.

        Exact-method ``records.csv`` does not depend on the seed, so a preset
        job has one key for every seed, while a generated game has the key of
        the seed that generated it.
        """
        body = {k: v for k, v in self.config.items() if k != "seed"}
        text = json.dumps([body, list(self.run_args)], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()


def custom_game(seed: int, n_players: int, samples: int) -> dict:
    """A seeded heterogeneous ``custom`` config with ``n_players - 1`` providers.

    Betas and daily totals are drawn from the seed. Exactly one provider sits
    below its activation threshold, so it is a null player with a zero
    payoff. No two providers share a beta or a daily total, so no symmetry
    between players can be exploited.
    """
    rng = random.Random(f"{seed}:{n_players}")
    n_sps = n_players - 1
    null_at = rng.randrange(n_sps)
    sps = []
    for i in range(n_sps):
        beta = _UNIT_PRICE * rng.uniform(0.5, 2.0)
        total = (1e4 if i == null_at else 1e6) * rng.uniform(0.5, 2.0)
        sps.append({"id": f"SP{i + 1:02d}", "beta": beta, "daily_total": total})
    for key in ("beta", "daily_total"):
        if len({sp[key] for sp in sps}) != n_sps:
            raise AssertionError(f"two providers share a {key}")
    return {
        "scenario": "custom",
        "description": f"seeded heterogeneous game, {n_players} players",
        "seed": seed,
        "samples": samples,
        "custom_sps": sps,
    }


def _presets(seed: int, root: Path) -> list[Job]:
    jobs = []
    for name in PRESETS:
        path = root / "src" / "coinvest" / "presets" / f"{name}.json"
        config = json.loads(path.read_text(encoding="utf-8"))
        config["seed"] = seed
        jobs.append(Job(name, config))
    return jobs


def _wide_coalitions(seed: int, root: Path) -> list[Job]:
    # 12 players is the largest n the supermodularity scan accepts; 17 is
    # past the vectorized sampler (16) but inside enumeration (20). It takes
    # the paths of 18 players at half the cost, so a run fits more rounds.
    return [Job(f"custom-n{n}", custom_game(seed, n, 5_000)) for n in (12, 17)]


def _sampling(seed: int, root: Path) -> list[Job]:
    # 8 players takes the table-backed sampler; 22 exceeds every exact bound.
    sample = ("--method", "sample")
    return [
        Job("custom-n8", custom_game(seed, 8, 200_000), sample),
        Job("custom-n22", custom_game(seed, 22, 20_000), sample),
    ]


WORKLOADS = {
    "presets": _presets,
    "wide-coalitions": _wide_coalitions,
    "sampling": _sampling,
}


def make_jobs(workload: str, seed: int, root: Path) -> list[Job]:
    """The jobs of one workload at one seed; ``root`` is the checkout."""
    return WORKLOADS[workload](seed, root)
