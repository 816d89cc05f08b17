import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from complexkit import cas
from complexkit.coevolve import DEFAULT_RULES, episode_fitness, weights_from_genome

from oracles import records_episode_fitness
from test_cas import RULES


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


def _score(make, kwargs, genome):
    """The genome's score by type and repr, or the error's type and message."""
    try:
        value = make(**kwargs)(genome)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), repr(value)


# Short genomes, and long runs of one bit: 1024 ones or more per rule
# overflow a chunk, and 1000-1023 ones make weights near 2**1023.
GENOMES = st.one_of(
    st.lists(st.sampled_from("01"), min_size=3, max_size=40).map(tuple),
    st.builds(lambda n, bit: (bit,) * n, st.integers(990, 3100), st.sampled_from("01")),
)
ONE, TWO = RULES[3], RULES[5]  # gains 1.0 and 2.0


def _case(rules, stimulus, genome, n_agents=5, ticks=20):
    return example(rules=rules, n_agents=n_agents, ticks=ticks, episode_seed=7,
                   stimulus=stimulus, genome=genome)


@settings(max_examples=200, deadline=None)
@_case([], 1.0, tuple("0101"))  # no rule
@_case([ONE, TWO], 1.0, ("1",))  # a genome shorter than the rule count
@_case([ONE], 1.0, ("1",) * 1024)  # a chunk beyond float range
@_case([RULES[2]], -2, tuple("0011"))  # floored to all-zero weights
@_case([TWO], 1e308, tuple("0011"))  # an infinite response
@_case([ONE], 1e308, ("1",) * 1023)  # a finite weight and response whose sum overflows
@_case([ONE, TWO], 0.7, tuple("0110"), n_agents=0)
@given(
    rules=st.lists(st.sampled_from(RULES), min_size=1, max_size=3),
    n_agents=st.integers(0, 6),
    ticks=st.integers(0, 30),
    episode_seed=st.integers(-2**70, 2**70),
    stimulus=st.one_of(st.sampled_from([1.0, -0.4, 0.7, 3, -2, 1e308, -1e308]),
                       st.floats(allow_nan=False, allow_infinity=False)),
    genome=GENOMES,
)
def test_episode_fitness_scores_as_the_records_oracle(rules, n_agents, ticks, episode_seed,
                                                      stimulus, genome):
    # Covers a degenerate (floored to zero) weight vector, a weight that
    # overflows to inf, a chunk beyond float range and a missing rule.
    kwargs = dict(rules=rules, n_agents=n_agents, ticks=ticks, episode_seed=episode_seed,
                  stimulus=stimulus)
    assert _score(episode_fitness, kwargs, genome) == _score(records_episode_fitness, kwargs,
                                                             genome)


def test_scoring_genomes_builds_no_agent_or_environment(monkeypatch):
    built = []
    for record in (cas.Strategy, cas.Agent, cas.Population, cas.Environment):
        def counted(self, *args, _init=record.__init__, _name=record.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(record, "__init__", counted)
    fitness = episode_fitness()
    assert set(built) == {"Strategy", "Agent", "Population", "Environment"}
    built.clear()
    scores = [fitness(tuple(f"{k:016b}")) for k in range(0, 2**16, 2**12)]
    assert len(scores) == 16 and len(set(scores)) > 1
    assert built == []
