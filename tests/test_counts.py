"""Every count an entry point takes is refused the same way: through
``_shared.as_integer``, a non-integer with ``{what} must be an integer,
got {value!r}`` and a count below its bound with ``{what} must be >=
{low}, got {value}``. The dynamics counts sit in ``test_dynamics.py``'s
step-count table."""

import random

import pytest

from complexkit import (CONWAY_LIFE, Agent, Environment, EvolutionConfig, Frame, Grid,
                        Individual, RuleError, RuleSet, Strategy, classify_pattern, coarse_grain,
                        complexity_profile, crossover, episode_fitness, info_bits, linear_rule,
                        reinforce, respond, run, run_scenario, select, theoretical_bits,
                        weights_from_genome)

BLOCK = Grid([(0, 0), (1, 0), (0, 1), (1, 1)])
POPULATION = [Individual(("0",), 1.0), Individual(("1",), 2.0)]
AGENT = Agent(0, "t", Strategy((linear_rule(0.5), linear_rule(2.0)), (1.0, 1.0)))

# (call with the count, name in the message, lowest accepted count, the
# message for a count below it when the entry point keeps its own).
COUNTS = [
    pytest.param(lambda v: run(BLOCK, CONWAY_LIFE, v), "generation count", 0, None, id="run"),
    pytest.param(lambda v: classify_pattern(BLOCK, CONWAY_LIFE, v), "horizon", 1, None,
                 id="classify_pattern"),
    pytest.param(lambda v: coarse_grain(BLOCK, v), "scale", 1, None, id="coarse_grain"),
    pytest.param(lambda v: Frame(scale=v), "scale", 1, None, id="Frame"),
    pytest.param(lambda v: run_scenario(Environment((), seed=1), v), "tick count", 0, None,
                 id="run_scenario"),
    pytest.param(lambda v: respond(AGENT, 1.0, v), "rule index", 0, None, id="respond"),
    pytest.param(lambda v: reinforce(AGENT, v, 5.0), "rule index", 0, None, id="reinforce"),
    pytest.param(lambda v: complexity_profile([BLOCK], [v]), "scale", 1, None,
                 id="complexity_profile"),
    pytest.param(lambda v: RuleSet(frozenset({3}), frozenset({2}), states=v), "states", 2, None,
                 id="RuleSet"),
    pytest.param(lambda v: EvolutionConfig(genome_length=v), "genome length", 1, None,
                 id="genome_length"),
    pytest.param(lambda v: EvolutionConfig(genome_length=8, population_size=v,
                                           tournament_size=1),
                 "population size", 2, None, id="population_size"),
    pytest.param(lambda v: EvolutionConfig(genome_length=8, generations=v), "generations", 0,
                 None, id="generations"),
    pytest.param(lambda v: EvolutionConfig(genome_length=8, tournament_size=v),
                 "tournament size", 1, None, id="tournament_size"),
    pytest.param(lambda v: EvolutionConfig(genome_length=8, elitism=v), "elitism count", 0,
                 None, id="elitism"),
    pytest.param(lambda v: select(POPULATION, v, 2, random.Random(0)), "selection count", 1,
                 None, id="select"),
    pytest.param(lambda v: select(POPULATION, 2, v, random.Random(0)), "tournament size", 1,
                 None, id="select-tournament_size"),
    pytest.param(lambda v: crossover(tuple("0101"), tuple("1010"), point=v), "cut point", 1,
                 "cut point must lie in [1, 3], got 0", id="crossover"),
    pytest.param(lambda v: weights_from_genome(tuple("0101"), v), "rule count", 1, None,
                 id="weights_from_genome"),
    pytest.param(lambda v: episode_fitness(n_agents=v), "agent count", 0, None,
                 id="episode_fitness-n_agents"),
    pytest.param(lambda v: episode_fitness(ticks=v), "tick count", 0, None,
                 id="episode_fitness-ticks"),
    pytest.param(info_bits, "state count", 1, None, id="info_bits"),
    pytest.param(theoretical_bits, "cell count", 0, None, id="theoretical_bits"),
    pytest.param(lambda v: theoretical_bits(4, v), "state count", 1, None,
                 id="theoretical_bits-states"),
]


@pytest.mark.parametrize("call, what, low, below", COUNTS)
def test_every_count_is_refused_with_the_helpers_two_messages(call, what, low, below):
    with pytest.raises(ValueError) as exc:
        call(2.5)
    assert str(exc.value) == f"{what} must be an integer, got 2.5"
    with pytest.raises(ValueError) as exc:
        call(low - 1)
    assert str(exc.value) == (below or f"{what} must be >= {low}, got {low - 1}")
    call(low)


@pytest.mark.parametrize("states", [2.5, 2.0, "3", None])
def test_a_rule_refuses_states_that_are_not_an_integer_with_a_rule_error(states):
    with pytest.raises(RuleError, match=f"^states must be an integer, got {states!r}$"):
        RuleSet(frozenset({3}), frozenset({2}), states=states)
