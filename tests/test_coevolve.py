import math

import pytest

from complexkit.coevolve import DEFAULT_RULES, episode_fitness, weights_from_genome


def test_weights_from_genome_chunks():
    genome = tuple("00000001" + "11111111")
    assert weights_from_genome(genome, 2) == (2.0, 256.0)


def test_weights_never_degenerate():
    assert weights_from_genome(tuple("0" * 16), 2) == (1.0, 1.0)


def test_weights_rejects_short_genome():
    with pytest.raises(ValueError):
        weights_from_genome(tuple("01"), 4)


def test_fitness_prefers_high_gain_rule():
    fitness = episode_fitness()
    greedy = fitness(tuple("0" * 8 + "1" * 8))   # all weight on the gain-2 rule
    timid = fitness(tuple("1" * 8 + "0" * 8))    # all weight on the gain-0.25 rule
    assert greedy > timid


def test_fitness_deterministic():
    fitness = episode_fitness()
    genome = tuple("0110100101101001")
    assert fitness(genome) == fitness(genome)


def test_fitness_bounded_by_rule_gains():
    fitness = episode_fitness()
    gains = [0.25, 2.0]
    value = fitness(tuple("1010101010101010"))
    assert min(gains) <= value <= max(gains)


def test_weights_reject_a_chunk_beyond_float_range():
    assert weights_from_genome(list("1" * 1023), 1) == (float(2**1023),)
    with pytest.raises(ValueError, match="chunk of 1024 bits"):
        weights_from_genome(list("1" * 1024), 1)


@pytest.mark.parametrize("kwargs, message", [
    ({"episode_seed": 1.5}, "episode seed must be an integer, got 1.5"),
    ({"episode_seed": "7"}, "episode seed must be an integer, got '7'"),
    ({"stimulus": "1"}, "stimulus must be a real number, got '1'"),
    ({"stimulus": math.nan}, "stimulus must be a finite number, got nan"),
    ({"stimulus": -math.inf}, "stimulus must be a finite number, got -inf"),
    ({"stimulus": math.inf, "n_agents": 0}, "stimulus must be a finite number, got inf"),
    ({"stimulus": 10**400}, f"stimulus must be a finite number, got {10**400!r}"),
])
def test_a_bad_seed_or_stimulus_is_refused_when_the_fitness_is_built(kwargs, message):
    with pytest.raises(ValueError) as exc:
        episode_fitness(**kwargs)
    assert str(exc.value) == message


@pytest.mark.parametrize("seed", [0, -1, 2**64, -2**70 - 3])
def test_any_integer_episode_seed_is_accepted(seed):
    value = episode_fitness(episode_seed=seed)(tuple("0110100101101001"))
    assert 0.25 <= value <= 2.0
