"""Span recorder for the traced run.

The recorder wraps each layer's public functions from outside the program:
every module binding of a wrapped function (``cli`` and ``scenarios`` import
names directly) is replaced for the length of a traced pass and restored
after it. A span records name, start, end, parent span, instance id and the
instance's player count, so per-n cost curves come out of the same spans.
Spans stay in memory until the run writes them out.

Characteristic-function evaluations (``game.coalition_value``) run up to a
million times per instance, so they are counted and timed per instance
instead of getting one span each. Their time still counts as child time of
the span that made them, so self times stay exact.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter

# Layer -> module attribute names wrapped in it. The first part of each span
# name is its layer; ``cli`` spans come from the click command callbacks.
WRAPPED = {
    "config": ("parse_config", "load_preset", "preset_names", "config_to_dict"),
    "scenarios": (
        "scenario_same_type", "scenario_omega", "scenario_price_sweep",
        "synth_load", "scale_load", "clamping_applied", "run_sweep",
    ),
    "game": ("optimal_allocation_single", "grand_allocation", "provider_revenue"),
    "shapley": (
        "shapley_enumeration", "shapley_closed_form", "shapley_sampling",
        "check_core", "check_supermodularity", "classify_players", "settle",
    ),
}
LAYERS = ("cli", "config", "scenarios", "game", "shapley")


@dataclass
class Span:
    name: str
    parent: int | None
    instance: str | None
    n: int | None
    invocation: int
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ValueStats:
    """Aggregated ``coalition_value`` calls of one instance."""

    n: int
    calls: int = 0
    total: float = 0.0
    child: float = 0.0


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    values: dict[str, ValueStats] = field(default_factory=dict)
    #: (span index, game, ShapleyResult) of every sampling call
    samples: list = field(default_factory=list)
    invocations: list[str] = field(default_factory=list)
    # Open calls, innermost last, each [span index, instance, n, child
    # seconds]; plain lists because a frame is pushed per value call.
    _stack: list[list] = field(default_factory=list)
    _games: dict[int, tuple[str, object]] = field(default_factory=dict)

    def begin_invocation(self, label: str) -> None:
        self.invocations.append(label)
        # Games of one invocation are kept alive until the next begins, so
        # id() cannot be reused for another game while it identifies one.
        self._games.clear()

    def _instance(self, game) -> tuple[str, int]:
        entry = self._games.get(id(game))
        if entry is None:
            entry = (f"{len(self.invocations) - 1}:{len(self._games)}", game)
            self._games[id(game)] = entry
        return entry[0], len(game.players)

    def _open(self, name: str, args) -> Span:
        top = self._stack[-1] if self._stack else [None, None, None, 0.0]
        if args and hasattr(args[0], "players"):
            instance, n = self._instance(args[0])
        else:
            instance, n = top[1], top[2]
        span = Span(name, top[0], instance, n, len(self.invocations) - 1)
        self.spans.append(span)
        self._stack.append([len(self.spans) - 1, instance, n, 0.0])
        return span

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name, args)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.child = self._stack.pop()[3]
                if self._stack:
                    self._stack[-1][3] += span.end - span.start
            if name == "shapley.shapley_sampling":
                self.samples.append((len(self.spans) - 1, args[0], result))
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_value(self, fn):
        stack, games, values = self._stack, self._games, self.values

        def traced(game, coalition):
            entry = games.get(id(game))
            instance = entry[0] if entry else self._instance(game)[0]
            frame = [stack[-1][0] if stack else None, instance, len(game.players), 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(game, coalition)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][3] += dur
                stats = values.get(instance)
                if stats is None:
                    stats = values[instance] = ValueStats(frame[2])
                stats.calls += 1
                stats.total += dur
                stats.child += frame[3]

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Per layer: time spent in its own code, children excluded."""
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            out[span.name.split(".")[0]] += span.duration - span.child
        out["game"] += sum(s.total - s.child for s in self.values.values())
        return out

    def dump(self) -> dict:
        """The trace as plain JSON data, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return {
            "invocations": self.invocations,
            "span_fields": ["name", "start", "end", "parent", "instance", "n", "invocation"],
            "spans": [
                [s.name, s.start - t0, s.end - t0, s.parent, s.instance, s.n, s.invocation]
                for s in self.spans
            ],
            "value_calls": {
                inst: {"n": s.n, "calls": s.calls, "seconds": s.total}
                for inst, s in self.values.items()
            },
        }


class Patch:
    """Swap every binding of the wrapped functions in the loaded coinvest modules."""

    def __init__(self, recorder: Recorder, cli_module):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "coinvest" or name.startswith("coinvest."))]
        replace = {}
        for layer, names in WRAPPED.items():
            home = sys.modules[f"coinvest.{layer}"]
            for attr in names:
                fn = getattr(home, attr)
                replace[id(fn)] = recorder.wrap(f"{layer}.{attr}", fn)
        value = sys.modules["coinvest.game"].coalition_value
        replace[id(value)] = recorder.wrap_value(value)
        self._undo = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        for command in (cli_module.run, cli_module.verify):
            self._undo.append((command, "callback", command.callback))
            command.callback = recorder.wrap(f"cli.{command.name}", command.callback)

    def undo(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo = []
