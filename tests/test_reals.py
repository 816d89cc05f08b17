"""Every real argument that must be finite is refused the same way:
through ``_shared.as_finite``, a value that is not a real number with
``{what} must be a real number, got {value!r}``, a NaN, an infinity or an
int too large for a float with ``{what} must be a finite number, got
{value!r}``, and a value outside the argument's bounds with ``{what} must
lie in [{low}, {high}], got {value!r}`` (or ``must be >= {low}`` when
there is no upper bound). ``delta0`` keeps its own strict ``> 0``
message. The CLI's config and flag values are checked by ``checked``,
in ``test_cli.py``."""

import math
import random

import pytest

from complexkit import (Agent, Branch, Environment, EvolutionConfig, IterativeMap, Population,
                        Strategy, divergence_rate, divergence_rate_two_trajectory,
                        episode_fitness, iterate, linear_rule, logistic_map, mutate, respond,
                        run_scenario, select_rule, tick)
from complexkit.cas import episode_runner

RULES = (linear_rule(0.5), linear_rule(2.0))
FIXED = Agent(0, "t", Strategy(RULES[:1]))
ADAPTIVE = Agent(0, "t", Strategy(RULES, (1.0, 1.0)))
LOGISTIC = logistic_map(4.0)


def _with_stimulus(stimulus):
    return Environment((Population("p", (FIXED,)),), seed=1, params={"stimulus": stimulus})


RUNNER = episode_runner(Environment((Population("p", (ADAPTIVE,)),), seed=1), 3)

# (call with the value, name in the message, an accepted value, a value
# out of range or None, and the message for it).
REALS = [
    pytest.param(linear_rule, "gain", 1.5, None, None, id="linear_rule"),
    pytest.param(lambda v: respond(FIXED, v), "stimulus", 0.5, None, None, id="respond"),
    pytest.param(lambda v: select_rule(ADAPTIVE, v), "draw", 0.5, 1.5,
                 "draw must lie in [0, 1], got 1.5", id="select_rule"),
    pytest.param(lambda v: run_scenario(_with_stimulus(v), 2), "stimulus", 2, None, None,
                 id="run_scenario"),
    pytest.param(lambda v: tick(_with_stimulus(v)), "stimulus", -0.5, None, None, id="tick"),
    pytest.param(lambda v: episode_fitness(stimulus=v), "stimulus", 1, None, None,
                 id="episode_fitness"),
    pytest.param(lambda v: Strategy(RULES, (v, 1.0)), "weight", 0, -1.0,
                 "weight must be >= 0, got -1.0", id="Strategy"),
    pytest.param(lambda v: RUNNER((1.0, v)), "weight", 0.0, -0.5,
                 "weight must be >= 0, got -0.5", id="episode_runner"),
    pytest.param(logistic_map, "r", 3.5, None, None, id="logistic_map"),
    pytest.param(lambda v: iterate(LOGISTIC, v, 3), "x0", 0.3, None, None, id="iterate"),
    pytest.param(lambda v: divergence_rate(LOGISTIC, v, 10, 0), "x0", 0.3, None, None,
                 id="divergence_rate"),
    pytest.param(lambda v: divergence_rate_two_trajectory(LOGISTIC, v, 10, 0), "x0", 0.3,
                 None, None, id="divergence_rate_two_trajectory"),
    pytest.param(lambda v: divergence_rate_two_trajectory(LOGISTIC, 0.3, 10, 0, delta0=v),
                 "delta0", 1e-9, 0, "delta0 must be a finite number > 0, got 0", id="delta0"),
    pytest.param(lambda v: IterativeMap((Branch(abs, abs, v), Branch(abs, abs, 1.0))),
                 "branch probability", 0, -0.5, "branch probability must be >= 0, got -0.5",
                 id="IterativeMap"),
    pytest.param(lambda v: EvolutionConfig(genome_length=8, mutation_rate=v), "mutation rate",
                 1, 1.5, "mutation rate must lie in [0, 1], got 1.5", id="mutation_rate"),
    pytest.param(lambda v: EvolutionConfig(genome_length=8, crossover_rate=v),
                 "crossover rate", 0, -0.5, "crossover rate must lie in [0, 1], got -0.5",
                 id="crossover_rate"),
    pytest.param(lambda v: mutate(tuple("0101"), v, random.Random(0)),
                 "mutation rate", 0.25, 1.0000001,
                 "mutation rate must lie in [0, 1], got 1.0000001", id="mutate"),
]

NOT_REAL = ["x", None, 0.5j]
NOT_FINITE = [math.nan, math.inf, -math.inf, 10**400]


@pytest.mark.parametrize("call, what, ok, outside, message", REALS)
def test_every_real_argument_is_refused_with_the_helpers_messages(call, what, ok, outside,
                                                                  message):
    for value in NOT_REAL:
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value) == f"{what} must be a real number, got {value!r}"
    for value in NOT_FINITE:
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value) == f"{what} must be a finite number, got {value!r}"
    if outside is not None:
        with pytest.raises(ValueError) as exc:
            call(outside)
        assert str(exc.value) == message
    call(ok)


def test_an_int_stimulus_is_still_recorded_as_a_float():
    out, _ = run_scenario(_with_stimulus(2), 1)
    assert out.agents()[0].memory == ((2.0, 1.0),)
    assert type(out.agents()[0].memory[0][0]) is float
