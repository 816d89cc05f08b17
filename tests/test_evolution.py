import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexkit.evolution import (
    EvaluationError,
    EvolutionConfig,
    Individual,
    crossover,
    evolve,
    mutate,
    random_genome,
    select,
)

from oracles import reference_evolve


def onemax(genome):
    return float(sum(1 for s in genome if s == "1"))


def pop_with_fitness(values):
    return [Individual(genome=(str(i),), fitness=v) for i, v in enumerate(values)]


def test_full_tournament_is_argmax():
    pop = pop_with_fitness([1.0, 5.0, 3.0])
    winners = select(pop, 10, tournament_size=3, rng=random.Random(0))
    assert all(w.fitness == 5.0 for w in winners)


def test_tie_breaks_to_lowest_index():
    pop = pop_with_fitness([4.0, 4.0])
    winners = select(pop, 20, tournament_size=2, rng=random.Random(1))
    assert all(w is pop[0] for w in winners)


def test_select_deterministic_under_seed():
    pop = pop_with_fitness([3.0, 1.0, 4.0, 1.0, 5.0])
    a = [w.fitness for w in select(pop, 30, 2, random.Random(9))]
    b = [w.fitness for w in select(pop, 30, 2, random.Random(9))]
    assert a == b


def test_select_rejects_unevaluated():
    pop = [Individual(genome=("0",))]
    with pytest.raises(ValueError):
        select(pop, 1, 1, random.Random(0))


def test_crossover_fixed_point():
    a, b = tuple("0000"), tuple("1111")
    assert crossover(a, b, point=2) == (tuple("0011"), tuple("1100"))


def test_crossover_minimal_length():
    assert crossover(tuple("01"), tuple("10"), point=1) == (tuple("00"), tuple("11"))


def test_crossover_errors():
    with pytest.raises(ValueError):
        crossover(tuple("01"), tuple("011"))
    with pytest.raises(ValueError):
        crossover(tuple("0"), tuple("1"))
    with pytest.raises(ValueError):
        crossover(tuple("0101"), tuple("1010"), point=4)


def test_crossover_conserves_symbols_positionwise():
    rng = random.Random(13)
    for _ in range(1000):
        length = rng.randint(2, 12)
        a = random_genome(length, "abc", rng)
        b = random_genome(length, "abc", rng)
        c, d = crossover(a, b, rng=rng)
        for i in range(length):
            assert Counter([c[i], d[i]]) == Counter([a[i], b[i]])


def test_mutate_rate_zero_is_identity():
    g = tuple("0110")
    assert mutate(g, 0.0, random.Random(0)) == g


def test_mutate_rate_one_complements_binary():
    g = tuple("0110")
    assert mutate(g, 1.0, random.Random(0)) == tuple("1001")


def test_mutate_reproducible():
    g = tuple("01" * 16)
    assert mutate(g, 0.5, random.Random(7)) == mutate(g, 0.5, random.Random(7))


def test_mutate_keeps_alphabet():
    rng = random.Random(2)
    g = random_genome(50, "xyz", rng)
    out = mutate(g, 0.8, rng, alphabet="xyz")
    assert set(out) <= set("xyz")
    assert len(out) == 50


def test_evolve_zero_generations_returns_initial_best():
    cfg = EvolutionConfig(genome_length=16, population_size=10, generations=0, seed=5)
    best, stats = evolve(cfg, onemax)
    assert len(stats) == 1
    assert stats[0].generation == 0
    assert best.fitness == stats[0].best


def test_evolve_elitism_monotone_best():
    cfg = EvolutionConfig(
        genome_length=32, population_size=30, generations=40, elitism=2, seed=3
    )
    _, stats = evolve(cfg, onemax)
    bests = [s.best for s in stats]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))


def test_evolve_deterministic_under_seed():
    cfg = EvolutionConfig(genome_length=24, population_size=20, generations=15, seed=8)
    _, a = evolve(cfg, onemax)
    _, b = evolve(cfg, onemax)
    assert a == b


def test_evolve_onemax_small():
    cfg = EvolutionConfig(
        genome_length=20,
        population_size=40,
        generations=60,
        mutation_rate=0.02,
        elitism=2,
        seed=4,
        target_fitness=20.0,
    )
    best, _ = evolve(cfg, onemax)
    assert best.fitness == 20.0


def test_evolve_scores_each_distinct_genome_once_per_run():
    calls = []

    def counted(genome):
        calls.append(genome)
        return onemax(genome)

    # 16 possible genomes, 11 populations of 12.
    cfg = EvolutionConfig(genome_length=4, population_size=12, generations=10,
                          mutation_rate=0.2, seed=3)
    _, stats = evolve(cfg, counted)
    assert len(calls) == len(set(calls)) <= 16
    assert stats == evolve(cfg, onemax)[1]


def test_evolve_rejects_nonfinite_fitness():
    cfg = EvolutionConfig(genome_length=8, population_size=4, generations=1, seed=1)
    with pytest.raises(EvaluationError):
        evolve(cfg, lambda g: float("nan"))


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(genome_length=8, population_size=1)
    with pytest.raises(ValueError):
        EvolutionConfig(genome_length=8, population_size=10, elitism=10)
    with pytest.raises(ValueError):
        EvolutionConfig(genome_length=8, mutation_rate=1.5)
    with pytest.raises(ValueError):
        EvolutionConfig(genome_length=8, population_size=4, tournament_size=5)


@pytest.mark.parametrize("size", [4, 5])
def test_select_refuses_a_tournament_larger_than_the_population(size):
    pop = pop_with_fitness([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=f"^tournament size {size} exceeds the population of 3$"):
        select(pop, 2, size, random.Random(0))
    assert select(pop, 2, 3, random.Random(0)) == [pop[2], pop[2]]


@pytest.mark.parametrize("make, message", [
    (lambda: EvolutionConfig(genome_length=8, mutation_rate="0.1"),
     "mutation rate must be a real number, got '0.1'"),
    (lambda: EvolutionConfig(genome_length=8, crossover_rate=None),
     "crossover rate must be a real number, got None"),
    (lambda: EvolutionConfig(genome_length=8, mutation_rate=0.5j),
     "mutation rate must be a real number, got 0.5j"),
    (lambda: mutate(tuple("0101"), "0.5", random.Random(0)),
     "mutation rate must be a real number, got '0.5'"),
    (lambda: mutate(tuple("0101"), [0.5], random.Random(0)),
     "mutation rate must be a real number, got [0.5]"),
    (lambda: EvolutionConfig(genome_length=8, alphabet=5), "alphabet must be a string, got 5"),
    (lambda: EvolutionConfig(genome_length=8, alphabet=["0", "1"]),
     "alphabet must be a string, got ['0', '1']"),
    (lambda: EvolutionConfig(genome_length=4, generations=2, target_fitness="x"),
     "target fitness must be a real number, got 'x'"),
])
def test_rates_and_the_alphabet_of_the_wrong_type_get_a_value_error(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


@pytest.mark.parametrize("alphabet, message", [
    ("0", "alphabet needs >= 2 distinct symbols"),
    ("00", "alphabet needs >= 2 distinct symbols"),
    ("", "alphabet needs >= 2 distinct symbols"),
    (5, "alphabet must be a string, got 5"),
])
@pytest.mark.parametrize("make", [
    lambda alphabet: EvolutionConfig(genome_length=8, alphabet=alphabet),
    lambda alphabet: mutate(("0", "1"), 0.5, random.Random(0), alphabet=alphabet),
    lambda alphabet: mutate(("0", "1"), 0.0, random.Random(0), alphabet=alphabet),
    lambda alphabet: random_genome(4, alphabet, random.Random(0)),
], ids=["EvolutionConfig", "mutate", "mutate-rate-0", "random_genome"])
def test_each_entry_point_checks_its_alphabet(make, alphabet, message):
    with pytest.raises(ValueError) as exc:
        make(alphabet)
    assert str(exc.value) == message


@pytest.mark.parametrize("length, message", [
    (2.5, "genome length must be an integer, got 2.5"),
    ("4", "genome length must be an integer, got '4'"),
    (-1, "genome length must be >= 0, got -1"),
])
def test_random_genome_refuses_a_length_that_is_not_a_count(length, message):
    with pytest.raises(ValueError) as exc:
        random_genome(length, "01", random.Random(0))
    assert str(exc.value) == message


def test_random_genome_of_length_zero_is_empty():
    assert random_genome(0, "01", random.Random(0)) == ()


@pytest.mark.parametrize("rate", [Fraction(1, 10), True, 0])
def test_any_real_rate_in_range_is_accepted(rate):
    cfg = EvolutionConfig(genome_length=8, mutation_rate=rate, crossover_rate=rate)
    assert cfg.mutation_rate is rate
    assert len(mutate(tuple("0101"), rate, random.Random(0))) == 4


def test_population_size_and_genome_length_invariant():
    seen = []
    cfg = EvolutionConfig(genome_length=12, population_size=15, generations=10, seed=6)

    def probe(genome):
        seen.append(genome)
        return onemax(genome)

    evolve(cfg, probe)
    assert all(len(g) == 12 for g in seen)
    assert all(set(g) <= {"0", "1"} for g in seen)


RATES = st.sampled_from([0.0, 0.1, 0.5, 1.0])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(data=st.data())
def test_evolve_matches_the_reference_loop(data):
    """Same stats, best, fitness calls and refused genome as the loop that
    scored each population in a pass of its own."""
    pop = data.draw(st.integers(2, 12), label="pop")
    length = data.draw(st.integers(1, 8), label="length")
    alphabet = data.draw(st.sampled_from(["01", "abc"]), label="alphabet")
    # Each position adds its weight when it holds the alphabet's last
    # symbol: zero weights and equal sums make ties common, and sums of
    # tenths are inexact, so the order of the mean's sum shows.
    weights = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.2, 0.7]), min_size=length,
                                 max_size=length), label="weights")
    top = sum(weights)  # the fitness of the genome of last symbols only
    cfg = EvolutionConfig(
        genome_length=length,
        population_size=pop,
        generations=data.draw(st.integers(0, 6), label="gens"),
        mutation_rate=data.draw(RATES, label="mutation"),
        crossover_rate=data.draw(RATES, label="crossover"),
        tournament_size=data.draw(st.integers(1, pop), label="tournament"),
        elitism=data.draw(st.integers(0, pop - 1), label="elitism"),
        seed=data.draw(st.integers(0, 2**32), label="seed"),
        alphabet=alphabet,
        target_fitness=data.draw(st.none() | st.sampled_from([0.0, top / 2, top]), label="target"),
    )
    poison = data.draw(st.none() | st.text(alphabet, min_size=1, max_size=3), label="nan suffix")

    def outcome(run):
        calls = []

        def fitness(genome):
            calls.append(genome)
            if poison is not None and "".join(genome).endswith(poison):
                return float("nan")
            return sum(w for w, s in zip(weights, genome) if s == alphabet[-1])

        try:
            best, stats = run(cfg, fitness)
        except EvaluationError as exc:
            return calls, exc.genome
        return calls, best.genome, best.fitness, stats

    assert outcome(evolve) == outcome(reference_evolve)
