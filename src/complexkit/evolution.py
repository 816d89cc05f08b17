"""Genetic algorithm over fixed-length genomes.

Generational loop with tournament selection, single-point crossover,
per-symbol mutation, and elitism. Each genome is scored when it is made,
and each generation is ranked once. All randomness flows from the config
seed, so runs are fully reproducible. Ties break everywhere toward the
lowest population index.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

from ._shared import _Record, as_finite, as_integer, as_real

Genome = tuple[str, ...]

UNEVALUATED = None


class EvaluationError(ValueError):
    """Fitness function returned a non-finite value for a genome."""

    def __init__(self, genome: Genome, value: float):
        super().__init__(f"non-finite fitness {value!r} for genome {''.join(genome)!r}")
        self.genome = genome


class Individual(_Record):
    """A genome and its fitness. Unlike the other records, it is mutable,
    and so unhashable."""

    _fields = ("genome", "fitness")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, genome: Genome, fitness: float | None = UNEVALUATED):
        self.__dict__.update(genome=genome, fitness=fitness)


def _check_alphabet(alphabet: str) -> None:
    """Raise ValueError unless ``alphabet`` is a string of at least two
    distinct symbols."""
    if not isinstance(alphabet, str):
        raise ValueError(f"alphabet must be a string, got {alphabet!r}")
    if len(alphabet) < 2 or len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet needs >= 2 distinct symbols")


class EvolutionConfig(_Record):
    """The GA's settings. ``target_fitness``, unless None, stops the run as
    soon as some individual reaches it; None runs all generations."""

    _fields = ("genome_length", "population_size", "generations", "mutation_rate",
               "crossover_rate", "tournament_size", "elitism", "seed", "alphabet",
               "target_fitness")

    def __init__(self, genome_length: int, population_size: int = 100, generations: int = 100,
                 mutation_rate: float = 0.01, crossover_rate: float = 0.9,
                 tournament_size: int = 3, elitism: int = 1, seed: int = 0,
                 alphabet: str = "01", target_fitness: float | None = None):
        size = as_integer("population size", population_size, 2)
        as_integer("generations", generations, 0)
        as_finite("mutation rate", mutation_rate, 0, 1)
        as_finite("crossover rate", crossover_rate, 0, 1)
        if as_integer("tournament size", tournament_size, 1) > size:
            raise ValueError("tournament size must lie in [1, population size]")
        if as_integer("elitism count", elitism, 0) >= size:
            raise ValueError("elitism count must lie in [0, population size)")
        as_integer("genome length", genome_length, 1)
        _check_alphabet(alphabet)
        if target_fitness is not None:
            as_real("target fitness", target_fitness)
        self.__dict__.update(
            genome_length=genome_length, population_size=population_size,
            generations=generations, mutation_rate=mutation_rate, crossover_rate=crossover_rate,
            tournament_size=tournament_size, elitism=elitism, seed=seed, alphabet=alphabet,
            target_fitness=target_fitness)


def random_genome(length: int, alphabet: str, rng: random.Random) -> Genome:
    _check_alphabet(alphabet)
    return tuple(rng.choice(alphabet) for _ in range(as_integer("genome length", length, 0)))


def select(
    population: Sequence[Individual],
    k: int,
    tournament_size: int,
    rng: random.Random,
) -> list[Individual]:
    """Pick ``k`` winners, each the fittest of a uniformly drawn tournament."""
    as_integer("selection count", k, 1)
    if as_integer("tournament size", tournament_size, 1) > len(population):
        raise ValueError(f"tournament size {tournament_size} exceeds the population of "
                         f"{len(population)}")
    for ind in population:
        if ind.fitness is UNEVALUATED:
            raise ValueError("cannot select from a population with unevaluated fitness")
    winners = []
    indices = range(len(population))
    for _ in range(k):
        entrants = rng.sample(indices, tournament_size)
        best = min(entrants, key=lambda i: (-population[i].fitness, i))
        winners.append(population[best])
    return winners


def crossover(
    a: Genome,
    b: Genome,
    point: int | None = None,
    rng: random.Random | None = None,
) -> tuple[Genome, Genome]:
    """Single-point crossover; the cut point is drawn uniformly if absent."""
    if len(a) != len(b):
        raise ValueError(f"genome lengths differ: {len(a)} vs {len(b)}")
    length = len(a)
    if length < 2:
        raise ValueError("crossover needs genomes of length >= 2")
    if point is None:
        if rng is None:
            raise ValueError("need a random stream to draw the cut point")
        point = rng.randint(1, length - 1)
    elif not (1 <= as_integer("cut point", point) <= length - 1):
        raise ValueError(f"cut point must lie in [1, {length - 1}], got {point}")
    return a[:point] + b[point:], b[:point] + a[point:]


def mutate(genome: Genome, rate: float, rng: random.Random, alphabet: str = "01") -> Genome:
    """Replace each symbol, independently with probability ``rate``, by a
    uniformly chosen different symbol."""
    as_finite("mutation rate", rate, 0, 1)
    _check_alphabet(alphabet)
    if rate == 0.0:
        return genome
    out = list(genome)
    for i, sym in enumerate(out):
        if rng.random() < rate:
            others = [s for s in alphabet if s != sym]
            out[i] = others[0] if len(others) == 1 else rng.choice(others)
    return tuple(out)


class GenerationStats(_Record):
    _fields = ("generation", "best", "mean")

    def __init__(self, generation: int, best: float, mean: float):
        self.__dict__.update(generation=generation, best=best, mean=mean)


def evolve(
    cfg: EvolutionConfig,
    fitness: Callable[[Genome], float],
) -> tuple[Individual, list[GenerationStats]]:
    """Run the generational loop and return the overall best plus stats.

    Each genome is scored when it is made, and each generation is ranked
    once for its stats, the run's best and the elites. The rest of the next
    generation is tournament winners recombined by crossover (with
    probability crossover_rate, otherwise cloned) and mutated.

    ``fitness`` must be pure: one memo per run scores each distinct genome
    once, in population order, and reuses that score whenever the genome
    comes back.
    """
    rng = random.Random(cfg.seed)
    memo: dict[Genome, float] = {}

    def scored(genome: Genome) -> Individual:
        if genome not in memo:
            value = float(fitness(genome))
            if not math.isfinite(value):
                raise EvaluationError(genome, value)
            memo[genome] = value
        return Individual(genome, memo[genome])

    population = [
        scored(random_genome(cfg.genome_length, cfg.alphabet, rng))
        for _ in range(cfg.population_size)
    ]
    stats: list[GenerationStats] = []
    overall_best = population[0]  # generation 0's best replaces it unless it is that best
    for generation in range(cfg.generations + 1):
        ranked = sorted(population, key=lambda ind: -ind.fitness)  # stable: ties keep index order
        mean = sum(ind.fitness for ind in population) / len(population)
        stats.append(GenerationStats(generation=generation, best=ranked[0].fitness, mean=mean))
        if ranked[0].fitness > overall_best.fitness:
            overall_best = ranked[0]
        if generation == cfg.generations or (
            cfg.target_fitness is not None and overall_best.fitness >= cfg.target_fitness
        ):
            break
        next_pop = ranked[: cfg.elitism]
        while len(next_pop) < cfg.population_size:
            pa, pb = select(population, 2, cfg.tournament_size, rng)
            if rng.random() < cfg.crossover_rate and cfg.genome_length >= 2:
                ca, cb = crossover(pa.genome, pb.genome, rng=rng)
            else:
                ca, cb = pa.genome, pb.genome
            for child in (ca, cb):
                if len(next_pop) >= cfg.population_size:
                    break
                next_pop.append(scored(mutate(child, cfg.mutation_rate, rng, cfg.alphabet)))
        population = next_pop
    return overall_best, stats
