"""Coupling between the genetic algorithm and the agent engine.

A genome is decoded into the starting weight vector of an adaptive
strategy; its fitness is the mean reward collected over a short episode.
Evolving such genomes co-adapts the agents' rule choices generation by
generation.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .cas import (Agent, AgentType, Environment, Population, Rule, Strategy, linear_rule,
                  run_scenario)
from .evolution import Genome

DEFAULT_RULES: tuple[Rule, ...] = (linear_rule(0.25), linear_rule(2.0))


def weights_from_genome(genome: Genome, n_rules: int) -> tuple[float, ...]:
    """Split a binary genome into ``n_rules`` equal chunks read as unsigned
    integers; each weight is 1 + value so no strategy is degenerate. A
    chunk whose value does not fit a float raises ValueError."""
    if n_rules < 1 or len(genome) < n_rules:
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

    rules = tuple(rules)

    def fitness(genome: Genome) -> float:
        weights = weights_from_genome(genome, len(rules))
        strategy = Strategy(rules=rules, weights=weights)
        agents = tuple(
            Agent(id=i, type_name="evolved", strategy=strategy) for i in range(n_agents)
        )
        env = Environment(
            populations=(Population(name="evolved", agents=agents),),
            seed=episode_seed,
            params={"stimulus": stimulus},
            types=(AgentType(name="evolved"),),
        )
        env, metrics = run_scenario(env, ticks)
        if not metrics:
            return 0.0
        return sum(row["mean_reward"] for row in metrics) / len(metrics)

    return fitness
