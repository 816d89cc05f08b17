"""Traced CLI run: spans around calls into each complexkit module.

    python3 bench/tracing.py SPANS.json -- life run --pattern p.rle ...

runs ``complexkit.cli.execute`` in this process with wrappers installed
by rebinding module attributes; nothing under ``src/`` changes. Each span
records its name, start, end and parent; self time is computed from them
afterwards. The per-agent ``cas`` functions run tens of thousands of
times, so they are traced as aggregated leaves (call count and total
time) instead of one record per call. Spans are kept in memory and
written out when the run ends. ``src`` must be on ``PYTHONPATH``.

Garbage-collector pauses are the program's only waiting time. Each pause
is charged to the span it interrupts and left out of that span's times,
so span times are busy time and ``gc.pause_s`` holds the waiting.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from typing import Callable

# A recorded span: [name, start, end, parent index (-1 for none),
# busy time of aggregated leaf children, GC pauses charged to the span].
Span = list


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, total_s]
        self.counts: dict[str, float] = {}
        self.gc = {"pause_s": 0.0, "gen0": 0, "gen1": 0, "gen2": 0}
        self._stack: list[int] = []
        self._gc_start = 0.0

    def call(self, name: str, fn, args, kwargs):
        rec = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    def call_leaf(self, name: str, fn, args, kwargs):
        """Aggregate instead of recording; fn must make no traced calls."""
        start, paused = self.clock(), self.gc["pause_s"]
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start - (self.gc["pause_s"] - paused)
            totals = self.leaves.setdefault(name, [0, 0.0])
            totals[0] += 1
            totals[1] += elapsed
            if self._stack:
                self.spans[self._stack[-1]][4] += elapsed

    def wrap(self, name: str, fn, leaf: bool = False, count=None):
        """Return fn traced as ``name``; ``count=(metric, f)`` adds
        f(args, result) to the metric after each call."""
        enter = self.call_leaf if leaf else self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = enter(name, fn, args, kwargs)
            if count is not None:
                metric, f = count
                self.counts[metric] = self.counts.get(metric, 0) + f(args, result)
            return result

        return traced

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = self.clock()
        else:
            pause = self.clock() - self._gc_start
            self.gc["pause_s"] += pause
            self.gc[f"gen{info['generation']}"] += 1
            if self._stack:
                self.spans[self._stack[-1]][5] += pause

    def dump(self) -> dict:
        return {"spans": self.spans, "leaves": self.leaves, "counts": self.counts, "gc": self.gc}


def busy_times(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Per span: (total, self) busy time. Total is the duration less the GC
    pauses anywhere inside it; self also leaves out the direct children."""
    gc_inside = [span[5] for span in spans]
    own = [end - start - leaf_s - gc_s for _, start, end, _, leaf_s, gc_s in spans]
    # A child is always recorded after its parent.
    for i in range(len(spans) - 1, -1, -1):
        _, start, end, parent, _, _ = spans[i]
        if parent >= 0:
            gc_inside[parent] += gc_inside[i]
            own[parent] -= end - start
    total = [end - start - g for (_, start, end, *_), g in zip(spans, gc_inside)]
    return total, own


def summarize(doc: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, total busy s and self_s."""
    out: dict[str, dict[str, float]] = {}
    total, own = busy_times(doc["spans"])
    for span, total_s, self_s in zip(doc["spans"], total, own):
        agg = out.setdefault(span[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += total_s
        agg["self_s"] += self_s
    for name, (calls, total) in doc["leaves"].items():
        out[name] = {"calls": calls, "s": total, "self_s": total}
    return out


def _tick_ms(spans: list[Span]) -> tuple[float, float]:
    """Mean tick wall time in ms, GC pauses included, over the first and
    the last tenth of ticks."""
    ticks = [end - start for name, start, end, *_ in spans if name == "cas.tick"]
    if not ticks:
        return 0.0, 0.0
    k = max(1, len(ticks) // 10)
    return 1000 * sum(ticks[:k]) / k, 1000 * sum(ticks[-k:]) / k


def layer_metrics(doc: dict) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced run's dump. A
    layer the workload never calls reads 0."""
    agg = summarize(doc)

    def get(name: str, stat: str) -> float:
        return agg.get(name, {}).get(stat, 0)

    m: dict[str, float] = {}
    for name, stats in (
        ("automaton.step", ("calls", "self_s")),
        ("automaton.run", ("self_s",)),
        ("grid.Grid", ("calls", "s")),
        ("patterns.decode_pattern", ("s",)),
        ("patterns.encode_pattern", ("s",)),
        ("complexity.coarse_grain", ("calls", "s")),
        ("complexity.complexity_profile", ("self_s",)),
        ("cas.tick", ("calls", "self_s")),
        ("cas.select_rule", ("s",)),
        ("cas.respond", ("s",)),
        ("cas.reinforce", ("s",)),
        ("scenario.build_environment", ("s",)),
        ("scenario.run_scenario", ("self_s",)),
        ("evolution.evolve", ("self_s",)),
        ("evolution.select", ("s",)),
        ("evolution.crossover", ("s",)),
        ("evolution.mutate", ("s",)),
        ("coevolve.episode", ("calls", "s")),
        ("dynamics.iterate", ("s",)),
        ("dynamics.divergence_rate", ("self_s",)),
        ("cli.execute", ("self_s",)),
    ):
        for stat in stats:
            m[f"{name}.{stat}"] = get(name, stat)
    counts = doc["counts"]
    for name in ("automaton.step.cells_in", "grid.Grid.cells", "patterns.bytes", "dynamics.steps"):
        m[name] = counts.get(name, 0)
    m["cas.tick.ms_first"], m["cas.tick.ms_last"] = _tick_ms(doc["spans"])
    requests = counts.get("evolution.score_requests", 0)
    m["evolution.score_requests"] = requests
    m["evolution.cache_hit_ratio"] = 1 - get("coevolve.episode", "calls") / requests if requests else 0.0
    m["gc.pause_s"] = doc["gc"]["pause_s"]
    for gen in range(3):
        m[f"gc.collections.gen{gen}"] = doc["gc"][f"gen{gen}"]
    return m


def _score_requests(args, result) -> int:
    """Genomes that need a score: the initial population, then every
    non-elite child of each generation run."""
    cfg, (_, stats) = args[0], result
    return cfg.population_size + (len(stats) - 1) * (cfg.population_size - cfg.elitism)


def install(tracer: Tracer) -> None:
    """Rebind the traced functions where their callers look them up."""
    from complexkit import automaton, cas, cli, coevolve, complexity, dynamics, evolution, grid, scenario

    t = tracer
    automaton.step = t.wrap(
        "automaton.step", automaton.step,
        count=("automaton.step.cells_in", lambda a, r: a[0].population))
    cli.run = t.wrap("automaton.run", automaton.run)
    grid.Grid.__init__ = t.wrap(
        "grid.Grid", grid.Grid.__init__, count=("grid.Grid.cells", lambda a, r: len(a[0])))
    cli.decode_pattern = t.wrap(
        "patterns.decode_pattern", cli.decode_pattern,
        count=("patterns.bytes", lambda a, r: len(a[0])))
    cli.encode_pattern = t.wrap(
        "patterns.encode_pattern", cli.encode_pattern,
        count=("patterns.bytes", lambda a, r: len(r)))
    complexity.coarse_grain = t.wrap("complexity.coarse_grain", complexity.coarse_grain)
    cli.complexity_profile = t.wrap("complexity.complexity_profile", cli.complexity_profile)
    scenario.tick = t.wrap("cas.tick", scenario.tick)
    for name in ("select_rule", "respond", "reinforce"):
        setattr(cas, name, t.wrap(f"cas.{name}", getattr(cas, name), leaf=True))
    cli.build_environment = t.wrap("scenario.build_environment", cli.build_environment)
    cli.run_scenario = t.wrap("scenario.run_scenario", cli.run_scenario)
    coevolve.run_scenario = t.wrap("scenario.run_scenario", coevolve.run_scenario)
    cli.evolve = t.wrap(
        "evolution.evolve", cli.evolve, count=("evolution.score_requests", _score_requests))
    for name in ("select", "crossover", "mutate"):
        setattr(evolution, name, t.wrap(f"evolution.{name}", getattr(evolution, name)))
    make_fitness = cli.episode_fitness
    cli.episode_fitness = lambda *a, **kw: t.wrap("coevolve.episode", make_fitness(*a, **kw))
    dynamics.iterate = t.wrap(
        "dynamics.iterate", dynamics.iterate,
        count=("dynamics.steps", lambda a, r: len(r.states) - 1))
    cli.divergence_rate = t.wrap("dynamics.divergence_rate", cli.divergence_rate)
    cli.execute = t.wrap("cli.execute", cli.execute)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    from complexkit import cli

    tracer = Tracer()
    install(tracer)
    gc.callbacks.append(tracer.on_gc)
    try:
        code = cli.execute(argv[2:])
    finally:
        gc.callbacks.remove(tracer.on_gc)
    with open(argv[0], "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
