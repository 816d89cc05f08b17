"""The 18 public records against dataclass twins of their former
definitions, and the start-up that no longer imports ``dataclasses``.

Each record was a ``@dataclass``; each is now a plain class on
``_shared._Record``. The twins below are the former definitions, checks
included, and share their class names with the records, so that the two
reprs can be compared byte for byte. For field values drawn by
hypothesis, twin and record must agree on the refusal of bad values (the
exception type and message), repr, ``==``, ``!=`` and hash, defaults,
assignment and deletion, ``copy.copy`` and ``pickle`` round trips, and
``_replace`` against ``dataclasses.replace``. ``Strategy`` and
``IterativeMap`` now keep tuples and ``Strategy`` checks each weight
through ``as_real``, so the draws give those two tuples and real
weights; the tests after the table pin what changed. The twins of the
records whose real-valued fields now go through ``as_finite`` (a
weight, a branch probability, the two rates) call it too, so the
messages compared are ``as_finite``'s.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import math
import operator
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import complexkit
from complexkit import automaton, cas, complexity, dynamics, evolution
from complexkit._shared import _Record, as_finite, as_integer
from complexkit.automaton import RuleError
from complexkit.grid import Grid, Topology

# The former definitions, fields and checks as they were.


@dataclass(frozen=True)
class RuleSet:
    birth: frozenset
    survival: frozenset
    states: int = 2

    def __post_init__(self):
        object.__setattr__(self, "birth", frozenset(self.birth))
        object.__setattr__(self, "survival", frozenset(self.survival))
        try:
            as_integer("states", self.states, 2)
        except ValueError as e:
            raise RuleError(str(e)) from None
        for count in self.birth | self.survival:
            if not isinstance(count, int) or count < 0:
                raise RuleError(f"neighbor counts must be non-negative ints, got {count!r}")
        if 0 in self.birth:
            raise RuleError("rules with 0 in the birth set are not supported")


@dataclass(frozen=True)
class PatternClass:
    kind: str
    period: int | None = None
    displacement: tuple | None = None


@dataclass(frozen=True)
class Rule:
    name: str
    apply: Callable


@dataclass(frozen=True)
class Strategy:
    rules: tuple
    weights: tuple | None = None

    def __post_init__(self):
        if not self.rules:
            raise ValueError("a strategy needs at least one rule")
        if self.weights is None:
            if len(self.rules) != 1:
                raise ValueError("a fixed strategy has exactly one rule")
        else:
            if len(self.weights) != len(self.rules):
                raise ValueError("need one weight per rule")
            for w in self.weights:
                as_finite("weight", w, 0)


@dataclass(frozen=True)
class AgentType:
    name: str
    schema: tuple = ()


@dataclass(frozen=True)
class Agent:
    id: int
    type_name: str
    strategy: object
    attributes: Mapping = field(default_factory=dict)
    memory: tuple = ()


@dataclass(frozen=True)
class Population:
    name: str
    agents: tuple


@dataclass(frozen=True)
class Environment:
    populations: tuple
    seed: int
    time: int = 0
    space: Grid | None = None
    params: Mapping = field(default_factory=dict)
    types: tuple = ()


@dataclass(frozen=True)
class Frame:
    scale: int = 1
    projection: frozenset | None = None

    def __post_init__(self):
        as_integer("scale", self.scale, 1)


@dataclass(frozen=True)
class Observation:
    time: int
    agents: tuple
    grid: Grid | None


@dataclass(frozen=True)
class StateCensus:
    omega: int
    sample_size: int
    scale: int


@dataclass(frozen=True)
class ComplexityProfile:
    entries: tuple


@dataclass(frozen=True)
class Branch:
    fn: Callable
    deriv: Callable
    probability: float = 1.0


@dataclass(frozen=True)
class IterativeMap:
    branches: tuple

    def __post_init__(self):
        if not self.branches:
            raise ValueError("a map needs at least one branch")
        total = 0.0
        for b in self.branches:
            total += as_finite("branch probability", b.probability, 0)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"branch probabilities must sum to 1, got {total}")


@dataclass(frozen=True)
class Trajectory:
    states: tuple
    branch_log: tuple


@dataclass
class Individual:
    genome: tuple
    fitness: float | None = None


@dataclass(frozen=True)
class EvolutionConfig:
    genome_length: int
    population_size: int = 100
    generations: int = 100
    mutation_rate: float = 0.01
    crossover_rate: float = 0.9
    tournament_size: int = 3
    elitism: int = 1
    seed: int = 0
    alphabet: str = "01"
    target_fitness: float | None = None

    def __post_init__(self):
        population_size = as_integer("population size", self.population_size, 2)
        as_integer("generations", self.generations, 0)
        as_finite("mutation rate", self.mutation_rate, 0, 1)
        as_finite("crossover rate", self.crossover_rate, 0, 1)
        if as_integer("tournament size", self.tournament_size, 1) > population_size:
            raise ValueError("tournament size must lie in [1, population size]")
        if as_integer("elitism count", self.elitism, 0) >= population_size:
            raise ValueError("elitism count must lie in [0, population size)")
        as_integer("genome length", self.genome_length, 1)
        if not isinstance(self.alphabet, str):
            raise ValueError(f"alphabet must be a string, got {self.alphabet!r}")
        if len(self.alphabet) < 2 or len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet needs >= 2 distinct symbols")


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best: float
    mean: float


# Field values. Callables are builtins, so that records holding them pickle.
ANY = (st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=3)
       | st.tuples(st.integers(0, 3)))
NOT_COUNTS = st.sampled_from([-1, 0, 1, 2.5, "3", None, True])
NOT_RATES = st.sampled_from([-0.5, 1.5, math.nan, math.inf, "0.1", None, 0.5j])
NAMES = st.text(max_size=4)
FLOATS = st.floats() | st.integers(-2, 3)
FUNCTIONS = st.sampled_from([abs, math.sin, operator.neg, float])
RULES = st.builds(cas.Rule, NAMES, FUNCTIONS)
STRATEGIES = st.builds(cas.Strategy, st.tuples(RULES), st.none())
GRIDS = st.none() | st.builds(Grid, st.sets(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                                             max_size=4), st.sampled_from(list(Topology)))
MEMORY = st.lists(st.tuples(st.floats(), st.floats()), max_size=3).map(tuple)
AGENTS = st.builds(cas.Agent, st.integers(0, 9), NAMES, STRATEGIES,
                   st.dictionaries(NAMES, ANY, max_size=2), MEMORY)
CENSUS = st.builds(complexity.StateCensus, st.integers(1, 9), st.integers(1, 9),
                   st.integers(1, 9))


def _branches(probabilities):
    return st.tuples(*[st.builds(dynamics.Branch, FUNCTIONS, FUNCTIONS, st.just(p))
                       for p in probabilities])


def _strategy_fields(n):
    weights = st.lists(st.floats(0, 1e300), min_size=n, max_size=n).map(tuple)
    return st.fixed_dictionaries({"rules": st.lists(RULES, min_size=n, max_size=n).map(tuple),
                                  "weights": weights | st.none() if n == 1 else weights})


# Record name -> (real class, twin, its accepted field values by name, and
# for a record with checks, values that a field may be spoiled with).
RECORDS = {
    "RuleSet": (automaton.RuleSet, RuleSet, st.fixed_dictionaries(
        {"birth": st.frozensets(st.integers(1, 9)), "survival": st.frozensets(st.integers(0, 9)),
         "states": st.integers(2, 5)}),
        {"birth": st.frozensets(st.sampled_from([0, -1, 2.5, "3", 4]), min_size=1),
         "survival": st.frozensets(st.sampled_from([-1, 2.5, "3", 4]), min_size=1),
         "states": NOT_COUNTS}),
    "PatternClass": (automaton.PatternClass, PatternClass, st.fixed_dictionaries(
        {"kind": NAMES, "period": st.none() | st.integers(1, 9),
         "displacement": st.none() | st.tuples(st.integers(-2, 2), st.integers(-2, 2))}), {}),
    "Rule": (cas.Rule, Rule, st.fixed_dictionaries({"name": NAMES, "apply": FUNCTIONS}), {}),
    "Strategy": (cas.Strategy, Strategy, st.integers(1, 3).flatmap(_strategy_fields),
                 {"rules": st.lists(RULES, max_size=3).map(tuple),
                  "weights": st.lists(FLOATS, max_size=3).map(tuple)}),
    "AgentType": (cas.AgentType, AgentType, st.fixed_dictionaries(
        {"name": NAMES, "schema": st.lists(st.tuples(NAMES, NAMES), max_size=2).map(tuple)}),
        {}),
    "Agent": (cas.Agent, Agent, st.fixed_dictionaries(
        {"id": st.integers(-1, 99), "type_name": NAMES, "strategy": STRATEGIES,
         "attributes": st.dictionaries(NAMES, ANY, max_size=3), "memory": MEMORY}), {}),
    "Population": (cas.Population, Population, st.fixed_dictionaries(
        {"name": NAMES, "agents": st.lists(AGENTS, max_size=2).map(tuple)}), {}),
    "Environment": (cas.Environment, Environment, st.fixed_dictionaries(
        {"populations": st.lists(st.builds(cas.Population, NAMES, st.tuples(AGENTS)),
                                 max_size=2).map(tuple),
         "seed": st.integers(-2**64, 2**64), "time": st.integers(0, 9), "space": GRIDS,
         "params": st.dictionaries(NAMES, ANY, max_size=2),
         "types": st.lists(st.builds(cas.AgentType, NAMES), max_size=2).map(tuple)}), {}),
    "Frame": (cas.Frame, Frame, st.fixed_dictionaries(
        {"scale": st.integers(1, 9), "projection": st.none() | st.frozensets(NAMES, max_size=3)}),
        {"scale": NOT_COUNTS}),
    "Observation": (cas.Observation, Observation, st.fixed_dictionaries(
        {"time": st.integers(0, 9),
         "agents": st.lists(st.tuples(st.integers(0, 9), NAMES, st.just(())),
                            max_size=2).map(tuple),
         "grid": GRIDS}), {}),
    "StateCensus": (complexity.StateCensus, StateCensus, st.fixed_dictionaries(
        {"omega": st.integers(1, 9), "sample_size": st.integers(1, 9),
         "scale": st.integers(1, 9)}), {}),
    "ComplexityProfile": (complexity.ComplexityProfile, ComplexityProfile, st.fixed_dictionaries(
        {"entries": st.lists(CENSUS, max_size=3).map(tuple)}), {}),
    "Branch": (dynamics.Branch, Branch, st.fixed_dictionaries(
        {"fn": FUNCTIONS, "deriv": FUNCTIONS, "probability": FLOATS}), {}),
    "IterativeMap": (dynamics.IterativeMap, IterativeMap, st.fixed_dictionaries(
        {"branches": st.sampled_from([(1.0,), (0.5, 0.5), (0.75, 0.25), (0.25, 0.0, 0.75)])
         .flatmap(_branches)}),
        {"branches": st.lists(st.sampled_from([1.0, 0.5, -1.0, math.nan, "x", 2]), max_size=3)
         .flatmap(_branches)}),
    "Trajectory": (dynamics.Trajectory, Trajectory, st.fixed_dictionaries(
        {"states": st.lists(st.floats(), max_size=3).map(tuple),
         "branch_log": st.lists(st.integers(0, 2), max_size=3).map(tuple)}), {}),
    "Individual": (evolution.Individual, Individual, st.fixed_dictionaries(
        {"genome": st.lists(st.sampled_from("01"), max_size=4).map(tuple),
         "fitness": st.none() | st.floats()}), {}),
    "EvolutionConfig": (evolution.EvolutionConfig, EvolutionConfig, st.fixed_dictionaries(
        {"genome_length": st.integers(1, 9), "population_size": st.integers(2, 12),
         "generations": st.integers(0, 9), "mutation_rate": st.floats(0, 1),
         "crossover_rate": st.floats(0, 1), "tournament_size": st.integers(1, 2),
         "elitism": st.integers(0, 1), "seed": st.integers(),
         "alphabet": st.sampled_from(["01", "abc", "10"]),
         "target_fitness": st.none() | st.floats() | st.integers()}),
        {"genome_length": NOT_COUNTS, "population_size": NOT_COUNTS, "generations": NOT_COUNTS,
         "mutation_rate": NOT_RATES, "crossover_rate": NOT_RATES,
         "tournament_size": NOT_COUNTS | st.just(20), "elitism": NOT_COUNTS | st.just(20),
         "alphabet": st.sampled_from(["0", "00", "", 5, ["0", "1"]])}),
    "GenerationStats": (evolution.GenerationStats, GenerationStats, st.fixed_dictionaries(
        {"generation": st.integers(0, 9), "best": st.floats(), "mean": st.floats()}), {}),
}


def outcome(make):
    """``make()``'s value, or the type and message of what it raised."""
    try:
        return make()
    except Exception as e:
        return type(e), str(e)


def refusal(make):
    """None if ``make()`` returns, else whether it raised an AttributeError
    (``dataclasses.FrozenInstanceError`` is one) and the message."""
    try:
        make()
    except Exception as e:
        return isinstance(e, AttributeError), str(e)
    return None


def test_every_public_record_has_a_twin():
    records = {name for name, value in vars(complexkit).items()
               if isinstance(value, type) and issubclass(value, _Record)}
    assert records == set(RECORDS)
    for name, (real, twin, _, _) in RECORDS.items():
        assert real.__name__ == twin.__name__ == name
        assert real._fields == tuple(f.name for f in dataclasses.fields(twin))


def _draw_fields(data, name):
    """Accepted field values by name, some of them spoiled in some draws."""
    _, _, values, bad = RECORDS[name]
    fields = data.draw(values, label="fields")
    for key in data.draw(st.sets(st.sampled_from(sorted(bad))) if bad
                         else st.just(())):
        fields[key] = data.draw(bad[key], label=f"spoiled {key}")
    return fields


def _pickled(record):
    return pickle.loads(pickle.dumps(record))


@pytest.mark.parametrize("name", list(RECORDS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_record_behaves_as_its_dataclass_twin(name, data):
    real, twin, _, _ = RECORDS[name]
    full = _draw_fields(data, name)
    positional = [full[key] for key in real._fields]
    assert repr(outcome(lambda: real(*positional))) == repr(outcome(lambda: real(**full)))
    optional = [f.name for f in dataclasses.fields(twin)
                if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING]
    omitted = data.draw(st.sets(st.sampled_from(optional)) if optional else st.just(set()))
    kwargs = {key: value for key, value in full.items() if key not in omitted}
    r, t = outcome(lambda: real(**kwargs)), outcome(lambda: twin(**kwargs))
    if isinstance(t, tuple):  # refused
        assert r == t
        return
    assert type(r) is real and repr(r) == repr(t)
    assert r == real(**kwargs) and not r != real(**kwargs)
    assert r != t and r.__eq__(t) is NotImplemented
    subclass_r, subclass_t = (type(name, (cls,), {})(**kwargs) for cls in (real, twin))
    assert (r == subclass_r, repr(subclass_r)) == (t == subclass_t, repr(subclass_t))
    other = _draw_fields(data, name)
    r2, t2 = outcome(lambda: real(**other)), outcome(lambda: twin(**other))
    if isinstance(t2, tuple):
        assert r2 == t2
    else:
        assert (r == r2, r != r2) == (t == t2, t != t2)
    assert outcome(lambda: hash(r)) == outcome(lambda: hash(t))
    for attr in real._fields + ("other",):
        for change in (lambda x: setattr(x, attr, 1), lambda x: delattr(x, attr)):
            assert (refusal(lambda: change(real(**kwargs)))
                    == refusal(lambda: change(twin(**kwargs))))
    for clone in (copy.copy, _pickled):
        rc, tc = clone(r), clone(t)
        assert type(rc) is real and repr(rc) == repr(tc)  # a set may pickle reordered
        assert (rc == r) == (tc == t)
    changes = {key: other[key] for key in data.draw(st.sets(st.sampled_from(real._fields)))}
    replaced = outcome(lambda: r._replace(**changes))
    expected = outcome(lambda: dataclasses.replace(t, **changes))
    if isinstance(expected, tuple):
        assert replaced == expected
    else:
        assert type(replaced) is real and repr(replaced) == repr(expected)
    assert outcome(lambda: r._replace(nope=1)) == outcome(lambda: dataclasses.replace(t, nope=1))


def test_strategy_and_map_keep_tuples_so_a_list_built_record_hashes():
    rule, branch = cas.linear_rule(1.0), dynamics.Branch(abs, abs)
    strategy = cas.Strategy([rule, rule], [1.0, 2.0])
    assert strategy.rules == (rule, rule) and strategy.weights == (1.0, 2.0)
    assert strategy == cas.Strategy((rule, rule), (1.0, 2.0))
    assert hash(cas.Strategy([rule])) == hash(cas.Strategy((rule,)))
    assert dynamics.IterativeMap([branch]).branches == (branch,)
    assert hash(dynamics.IterativeMap([branch])) == hash(dynamics.IterativeMap((branch,)))


@pytest.mark.parametrize("weight", ["x", None, 0.5j, [1.0]])
def test_a_strategy_refuses_a_weight_that_is_not_a_real_number(weight):
    with pytest.raises(ValueError) as exc:
        cas.Strategy((cas.linear_rule(1.0),), (weight,))
    assert str(exc.value) == f"weight must be a real number, got {weight!r}"


def test_a_default_or_none_mapping_is_a_new_dict():
    strategy = cas.Strategy((cas.linear_rule(1.0),))
    agents = [cas.Agent(0, "t", strategy), cas.Agent(0, "t", strategy, None)]
    envs = [cas.Environment((), 1), cas.Environment((), 1, params=None)]
    for a, b in (agents, envs):
        assert a == b
    assert agents[0].attributes == {} and agents[0].attributes is not agents[1].attributes
    assert envs[0].params == {} and envs[0].params is not envs[1].params
    given = {}
    assert cas.Agent(0, "t", strategy, given).attributes is given
    assert cas.Environment((), 1, params=given).params is given


SRC = Path(complexkit.__file__).parent


def test_no_library_module_imports_dataclasses():
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.add(path.stem)
    assert importers == set()


def test_a_cli_start_loads_none_of_the_dataclass_machinery():
    script = ("import sys, complexkit.cli; "
              "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
