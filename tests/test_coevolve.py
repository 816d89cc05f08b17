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
