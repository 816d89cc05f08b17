"""Coupling between the genetic algorithm and the agent engine.

A genome is decoded into the starting weight vector of an adaptive
strategy; its fitness is the mean reward collected over a short episode.
Evolving such genomes co-adapts the agents' rule choices generation by
generation.

Every episode of one fitness function has the same seed, agents, rules,
stimulus and ticks, so only the starting weights differ: the function
builds its environment once and runs every episode through one
``cas.episode_runner``, which prepares the fixed part and the draws once.
A genome then supplies only its weight vector, and its score is read from
each tick's mean response without building any record. The scores are
those of ``run_scenario``, bit for bit.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ._shared import as_finite, as_integer
from .cas import (Agent, AgentType, Environment, Population, Rule, Strategy, episode_runner,
                  linear_rule)
from .cas import run_scenario  # noqa: F401  bench/tracing.py rebinds coevolve.run_scenario
from .evolution import Genome

DEFAULT_RULES: tuple[Rule, ...] = (linear_rule(0.25), linear_rule(2.0))


def weights_from_genome(genome: Genome, n_rules: int) -> tuple[float, ...]:
    """Split a binary genome into ``n_rules`` equal chunks read as unsigned
    integers; each weight is 1 + value so no strategy is degenerate. A
    chunk whose value does not fit a float raises ValueError."""
    if len(genome) < as_integer("rule count", n_rules, 1):
        raise ValueError("genome too short for the requested rule count")
    chunk = len(genome) // n_rules
    weights = []
    for i in range(n_rules):
        bits = "".join(genome[i * chunk : (i + 1) * chunk])
        try:
            weights.append(1.0 + int(bits, 2))
        except OverflowError:
            raise ValueError(f"a genome chunk of {chunk} bits does not fit a float weight") from None
    return tuple(weights)


def episode_fitness(
    rules: Sequence[Rule] = DEFAULT_RULES,
    n_agents: int = 5,
    ticks: int = 20,
    episode_seed: int = 7,
    stimulus: float = 1.0,
) -> Callable[[Genome], float]:
    """Build a GA fitness function that scores a genome by the mean reward
    of an adaptive-agent episode seeded with the decoded weights."""
    as_integer("agent count", n_agents, 0)
    as_integer("tick count", ticks, 0)
    as_integer("episode seed", episode_seed)
    as_finite("stimulus", stimulus)
    rules = tuple(rules)
    as_integer("rule count", len(rules), 1)  # what weights_from_genome refuses for every genome
    strategy = Strategy(rules, (1.0,) * len(rules))
    agents = tuple(Agent(i, "evolved", strategy) for i in range(n_agents))
    run = episode_runner(Environment((Population("evolved", agents),), episode_seed,
                                     params={"stimulus": stimulus},
                                     types=(AgentType("evolved"),)), ticks)

    def fitness(genome: Genome) -> float:
        means = run(weights_from_genome(genome, len(rules)))
        return sum(means) / len(means) if means else 0.0

    return fitness
