import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexkit.cas import (
    Agent,
    DegenerateStrategyError,
    Environment,
    Frame,
    FrameError,
    Population,
    Rule,
    Strategy,
    _counter,
    _draw,
    _lanes,
    double_on_second_rule,
    linear_rule,
    observe,
    reinforce,
    respond,
    select_rule,
    snapshot,
    tick,
)
from complexkit.complexity import coarse_grain
from complexkit.grid import Grid, Topology
from complexkit.scenario import ScenarioError, build_environment, run_scenario

from oracles import agent_run

SCENARIO = {
    "seed": 99,
    "stimulus": 1.0,
    "grid": {"width": 12, "height": 12},
    "agent_types": [
        {"name": "drone", "count": 10, "strategy": "fixed",
         "rule": {"kind": "linear", "gain": 1.0}},
        {"name": "learner", "count": 10, "strategy": "adaptive",
         "rules": [{"kind": "linear", "gain": 0.5}, {"kind": "linear", "gain": 2.0}],
         "weights": [1, 1]},
    ],
}


def fixed_agent(agent_id=0, rule=None):
    return Agent(
        id=agent_id,
        type_name="fixed",
        strategy=Strategy(rules=(rule or linear_rule(1.0),)),
    )


def adaptive_agent(weights, agent_id=0):
    return Agent(
        id=agent_id,
        type_name="adaptive",
        strategy=Strategy(
            rules=(linear_rule(0.5), linear_rule(2.0)),
            weights=tuple(float(w) for w in weights),
        ),
    )


def test_double_on_second_pair():
    agent = fixed_agent(rule=double_on_second_rule())
    first, agent = respond(agent, 1.0)
    second, agent = respond(agent, 1.0)
    assert (first, second) == (0.0, 2.0)
    # the pair repeats
    third, agent = respond(agent, 3.0)
    fourth, agent = respond(agent, 3.0)
    assert (third, fourth) == (0.0, 6.0)


def test_linear_rule_identity_gain():
    response, _ = respond(fixed_agent(), 0.5)
    assert response == 0.5


def test_respond_appends_memory():
    agent = fixed_agent()
    for i in range(5):
        _, agent = respond(agent, float(i))
    assert len(agent.memory) == 5
    assert agent.memory[3] == (3.0, 3.0)


def test_respond_rejects_nonfinite_stimulus():
    with pytest.raises(ValueError):
        respond(fixed_agent(), float("inf"))


def test_fixed_strategy_needs_single_rule():
    with pytest.raises(ValueError):
        Strategy(rules=(linear_rule(1.0), linear_rule(2.0)))


def test_nacs_always_selects_rule_zero():
    agent = fixed_agent()
    rng = random.Random(0)
    assert all(select_rule(agent, rng.random(), rng) == 0 for _ in range(1000))


def test_adaptive_selection_tracks_weights():
    agent = adaptive_agent([1.0, 1.0])
    agent = reinforce(agent, 1, 9.0)
    assert agent.strategy.weights == (1.0, 10.0)
    rng = random.Random(123)
    draws = sum(select_rule(agent, 0.0, rng) for _ in range(100_000))
    assert abs(draws / 100_000 - 10 / 11) < 0.01


def test_reinforce_floors_at_zero():
    agent = adaptive_agent([1.0, 1.0])
    agent = reinforce(agent, 0, -5.0)
    assert agent.strategy.weights == (0.0, 1.0)


def test_all_zero_weights_degenerate():
    agent = adaptive_agent([0.0, 0.0])
    with pytest.raises(DegenerateStrategyError):
        select_rule(agent, 0.0, random.Random(0))


def test_selection_reproducible_for_equal_seed():
    agent = adaptive_agent([1.0, 3.0])
    a = [select_rule(agent, 0.0, random.Random(42)) for _ in range(10)]
    b = [select_rule(agent, 0.0, random.Random(42)) for _ in range(10)]
    assert a == b


def test_empty_environment_tick():
    env = Environment(populations=(), seed=1)
    nxt = tick(env)
    assert nxt.time == env.time + 1
    assert nxt.populations == ()


def test_tick_is_order_independent():
    base = build_environment(SCENARIO)
    reference = base
    for _ in range(5):
        reference = tick(reference)
    rng = random.Random(17)
    for _ in range(50):
        agents = base.agents()
        rng.shuffle(agents)
        half = len(agents) // 2
        shuffled = Environment(
            populations=(
                Population("a", tuple(agents[:half])),
                Population("b", tuple(agents[half:])),
            ),
            seed=base.seed,
            space=base.space,
            params=base.params,
            types=base.types,
        )
        for _ in range(5):
            shuffled = tick(shuffled)
        assert snapshot(shuffled) == snapshot(reference)


def test_trajectory_deterministic_across_runs():
    a = build_environment(SCENARIO)
    b = build_environment(SCENARIO)
    for _ in range(100):
        a = tick(a)
        b = tick(b)
        assert snapshot(a) == snapshot(b)


def test_memory_length_counts_respond_calls():
    env = build_environment(SCENARIO)
    for _ in range(7):
        env = tick(env)
    assert all(len(a.memory) == 7 for a in env.agents())


def test_scenario_requires_seed():
    with pytest.raises(ScenarioError):
        build_environment({"agent_types": []})


def test_scenario_seed_must_be_an_integer():
    with pytest.raises(ScenarioError, match="^scenario seed must be an integer, got str$"):
        build_environment({**SCENARIO, "seed": "5"})


def test_run_scenario_metrics():
    env = build_environment(SCENARIO)
    env, metrics = run_scenario(env, 10)
    assert len(metrics) == 10
    assert metrics[-1]["tick"] == 10
    assert metrics[0]["agents"] == 20
    assert all(math.isfinite(row["mean_response"]) for row in metrics)


def test_observe_identity_frame_is_lossless():
    env = build_environment(SCENARIO)
    env = tick(env)
    obs = observe(env, Frame(scale=1))
    assert obs.time == env.time
    assert obs.grid == env.space
    by_id = {a.id: a for a in env.agents()}
    for agent_id, type_name, attrs in obs.agents:
        assert dict(attrs) == dict(by_id[agent_id].attributes)
        assert type_name == by_id[agent_id].type_name


def test_observe_projection_hides_other_attributes():
    env = build_environment(SCENARIO)
    obs = observe(env, Frame(scale=1, projection=frozenset({"position"})))
    for _, _, attrs in obs.agents:
        assert set(k for k, _ in attrs) <= {"position"}


def test_observe_unknown_attribute_rejected():
    env = build_environment(SCENARIO)
    with pytest.raises(FrameError):
        observe(env, Frame(scale=1, projection=frozenset({"velocity"})))


def test_observe_without_types_knows_the_agents_attributes():
    agents = (Agent(0, "t", Strategy((linear_rule(1.0),)), {"position": (1, 2), "hue": 3}),)
    env = Environment((Population("p", agents),), seed=1)
    obs = observe(env, Frame(projection=frozenset({"hue"})))
    assert obs.agents == ((0, "t", (("hue", 3),)),)
    with pytest.raises(FrameError, match=r"unknown attributes: \['velocity'\]"):
        observe(env, Frame(projection=frozenset({"velocity"})))


def test_observe_scale_matches_coarse_grain():
    env = build_environment(SCENARIO)
    env = tick(env)
    obs = observe(env, Frame(scale=2))
    assert obs.grid == coarse_grain(env.space, 2)


def test_observation_coarsening_is_monotone():
    # the scale-4 view is recoverable from the scale-2 view
    env = build_environment(SCENARIO)
    env = tick(env)
    obs2 = observe(env, Frame(scale=2))
    obs4 = observe(env, Frame(scale=4))
    assert coarse_grain(obs2.grid, 2) == obs4.grid


RULES = (
    linear_rule(-1.5), linear_rule(-0.3), linear_rule(0.5), linear_rule(1.0),
    linear_rule(1.7), linear_rule(2.0), double_on_second_rule(),
)


@st.composite
def scenarios(draw):
    """Small environments: fixed and adaptive agents, zero and negative
    weights, pre-filled memory, permuted populations, and no grid or a
    crowded one with colliding claims and agents without a position."""
    n = draw(st.integers(0, 10), label="agents")
    ids = draw(st.permutations(range(n)), label="ids")
    topology = draw(st.sampled_from([None, Topology.SQUARE, Topology.HEX]), label="topology")
    coord = st.tuples(st.integers(0, 2), st.integers(0, 2))
    agents = []
    for agent_id in ids:
        rules = tuple(draw(st.lists(st.sampled_from(RULES), min_size=1, max_size=3)))
        if len(rules) == 1 and draw(st.booleans()):
            strategy = Strategy(rules=rules)
        else:
            weights = draw(st.lists(st.sampled_from([1.0, 0.25, 2.5, 0.0]),
                                    min_size=len(rules), max_size=len(rules)))
            if not any(weights) and draw(st.integers(0, 9)):
                weights[-1] = 1.0  # keep most runs from stopping at a degenerate draw
            strategy = Strategy(rules=rules, weights=tuple(weights))
        memory = tuple(draw(st.lists(st.tuples(st.sampled_from([0.5, 1.0]),
                                               st.sampled_from([0.0, 1.25])), max_size=3)))
        attributes = {"colour": draw(st.integers(0, 2))}
        if topology is not None and draw(st.integers(0, 4)):
            attributes["position"] = draw(coord)
        agents.append(Agent(agent_id, "t", strategy, attributes, memory))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=2)))
    bounds = [0, *cuts, n]
    populations = tuple(
        Population(f"p{k}", tuple(agents[lo:hi])) for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    )
    space = None
    if topology is not None:
        space = Grid([a.attributes["position"] for a in agents if "position" in a.attributes],
                     topology=topology)
    return Environment(
        populations=populations,
        seed=draw(st.integers(-2**65, 2**65), label="seed"),
        time=draw(st.integers(0, 30), label="time"),
        space=space,
        params={"stimulus": draw(st.sampled_from([1.0, 0.7, 1.3, -0.4]), label="stimulus")},
    )


def _outcome(run, env, ticks):
    # A degenerate draw is compared by type: on the first tick of permuted
    # populations with two degenerate agents, the engine and the oracle may
    # meet a different one first.
    try:
        final, metrics = run(env, ticks)
    except DegenerateStrategyError as exc:
        return type(exc)
    layout = [(pop.name, [a.id for a in pop.agents]) for pop in final.populations]
    return snapshot(final), layout, metrics


@settings(max_examples=150, deadline=None)
@given(env=scenarios(), ticks=st.integers(1, 6))
def test_engine_matches_the_replace_based_oracle(env, ticks):
    before = snapshot(env)
    expected = _outcome(agent_run, env, ticks)
    assert _outcome(run_scenario, env, ticks) == expected
    assert _outcome(lambda e, n: agent_run(e, n, tick=tick), env, ticks) == expected
    assert snapshot(env) == before


@pytest.mark.parametrize("grid", [True, False])
def test_engine_output_shares_no_attribute_dict_with_its_input(grid):
    env = build_environment(SCENARIO)
    if not grid:
        env = Environment(env.populations, env.seed, params=env.params)
    out, _ = run_scenario(env, 3)
    for old, new in zip(env.agents(), out.agents()):
        assert new.attributes is not old.attributes
        new.attributes["colour"] = 1
        assert "colour" not in old.attributes


def test_zero_ticks_returns_the_input_env():
    env = build_environment(SCENARIO)
    out, metrics = run_scenario(env, 0)
    assert out is env and metrics == []


def test_stream_matches_the_published_splitmix64_outputs():
    # SplitMix64 from state 0 (Steele, Lea & Flood 2014, reference code).
    assert [_draw(0, j) for j in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]


@pytest.mark.parametrize("seed", [11, -2**70 - 3])
def test_counter_is_injective_in_time_and_id(seed):
    # The block around 1_000_003 met agent 0's stream one tick later under
    # the old (seed * 1_000_003 + time) * 1_000_003 + id key.
    ids = [*range(4096), *range(1_000_003 - 2048, 1_000_003 + 2048)]
    counters = {_counter(seed, time, agent_id) for time in range(64) for agent_id in ids}
    assert len(counters) == 64 * len(ids)
    edges = [(0, 0), (0, 2**32 - 1), (2**32 - 1, 0), (2**32 - 1, 2**32 - 1), (1, 0)]
    assert len({_counter(seed, t, a) for t, a in edges}) == len(edges)


# The ids at the edges of test_counter_is_injective_in_time_and_id's ranges.
EDGE_IDS = [0, 1, 4095, 1_000_003 - 2048, 1_000_003, 1_000_003 + 2047, 2**32 - 1]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(-2**65, 2**65),
    time=st.integers(0, 2**32 - 1),
    ids=st.lists(st.one_of(st.sampled_from(EDGE_IDS), st.integers(0, 2**32 - 1)), max_size=300),
    js=st.sampled_from([(0,), (1,), (0, 1)]),
)
def test_lane_draws_equal_the_scalar_stream(seed, time, ids, js):
    draws = _lanes(ids, js)(_counter(seed, time, 0))
    assert list(draws) == [_draw(_counter(seed, time, i), j) for j in js for i in ids]


class Tagged(float):
    """A float subclass: equal to its value, but not of type float."""


# Responses by history length: a repeated float, both zeros in turn, an int
# and a bool next to equal floats, NaN twice and a float subclass.
RESPONSES = (1.5, 1.5, 0.0, -0.0, -0.0, 0.0, 2, 2.0, 2.0, 2, True, 1.0, 1.0, True,
             math.nan, math.nan, Tagged(1.5), 1.5, 1.5, Tagged(1.5), -2.5, -2.5)


def test_shared_history_events_keep_each_response_exactly():
    # snapshot compares with ==, which cannot tell 0.0 from -0.0 or 2 from
    # 2.0, so each memory field is compared by type and repr.
    cycle = Rule("cycle", lambda s, mem: RESPONSES[len(mem) % len(RESPONSES)])
    steady = linear_rule(1.5)
    agents = tuple(
        Agent(i, "t", Strategy((cycle,)) if i % 2 else Strategy((cycle, steady), (1.0, 1.0)))
        for i in range(6)
    )
    env = Environment((Population("p", agents),), seed=5, params={"stimulus": 1.0})
    ticks = 3 * len(RESPONSES)

    def fields(run):
        out, _ = run(env, ticks)
        return [[tuple((type(v), repr(v)) for v in event) for event in a.memory]
                for a in sorted(out.agents(), key=lambda a: a.id)]

    assert fields(run_scenario) == fields(agent_run)
    memory = run_scenario(env, ticks)[0].agents()[1].memory
    assert memory[0] is memory[1] and memory[7] is memory[8]


@pytest.mark.parametrize("big", [math.inf, 1.5e308], ids=["inf", "finite-sum-overflows"])
def test_a_weight_that_overflows_raises_in_its_tick_like_the_oracle(big):
    """Rule 0's response makes its weight infinite at once (inf) or on its
    second call (1.5e308 twice). The engine raises in that tick, after the
    same rule calls as the oracle, before any draw reads the weight."""
    def recorded(calls):
        def record(response):
            return lambda s, mem: calls.append(len(mem)) or response
        rules = (Rule("big", record(big)), Rule("small", record(0.5)))
        agents = tuple(Agent(i, "t", Strategy(rules, (1.0, 1.0))) for i in range(4))
        return Environment((Population("p", agents),), seed=3, params={"stimulus": 1.0})

    engine, oracle = [], []
    with pytest.raises(ValueError) as raised:
        run_scenario(recorded(engine), 500)
    with pytest.raises(ValueError, match="weights must be finite"):
        agent_run(recorded(oracle), 500)
    assert engine == oracle
    # Every agent starts with an empty memory, so the last call's history
    # length is the tick's time, and the tick is numbered as in the metrics.
    assert re.fullmatch(rf"agent [0-3] rule 0: reinforced weight overflowed to inf "
                        rf"in tick {engine[-1] + 1}", str(raised.value))


def test_fixed_agents_record_an_infinite_response_as_it_is():
    env = Environment((Population("p", (fixed_agent(0, linear_rule(math.inf)),)),), seed=1)
    out, metrics = run_scenario(env, 3)
    assert [row["mean_response"] for row in metrics] == [math.inf] * 3
    assert out.agents()[0].memory == ((1.0, math.inf),) * 3


def test_memory_of_a_long_run_stays_small():
    # The cas-grid benchmark's shape: 50 fixed and 50 adaptive agents on a
    # 30x30 grid, run for 2000 ticks.
    env = build_environment({
        **SCENARIO, "seed": 13, "grid": {"width": 30, "height": 30},
        "agent_types": [{**t, "count": 50} for t in SCENARIO["agent_types"]],
    })
    tracemalloc.start()
    try:
        out, _ = run_scenario(env, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    events = {id(event) for a in out.agents() for event in a.memory}
    assert len(events) <= sum(len(a.strategy.rules) for a in out.agents())


@pytest.mark.parametrize("topology", [Topology.SQUARE, Topology.HEX])
def test_engine_draws_rules_and_moves_with_the_expected_frequencies(topology):
    # Zero responses keep the weights at [1, 3]; 50 cells between agents
    # keep 20 ticks of moves from ever colliding.
    drawn = []
    rules = tuple(Rule(f"r{k}", lambda s, mem, k=k: drawn.append(k) or 0.0) for k in (0, 1))
    agents = tuple(Agent(i, "t", Strategy(rules, (1.0, 3.0)), {"position": (50 * i, 0)})
                   for i in range(1000))
    env = Environment((Population("p", agents),), seed=31,
                      space=Grid([a.attributes["position"] for a in agents], topology))
    moves = []
    for _ in range(20):
        before = [a.attributes["position"] for a in env.agents()]
        env = tick(env)
        moves += [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1)
                  in zip(before, (a.attributes["position"] for a in env.agents()))]
    assert len(drawn) == len(moves) == 20_000
    assert abs(drawn.count(1) / len(drawn) - 0.75) <= 0.01
    for offset in topology.offsets:
        assert abs(moves.count(offset) / len(moves) - 1 / topology.degree) <= 0.01
    assert len(set(moves)) == topology.degree


def _placement_config(seed, width, height, counts):
    return {
        "seed": seed,
        "grid": {"width": width, "height": height},
        "agent_types": [
            {"name": f"t{i}", "count": c, "strategy": "fixed", "rule": {"kind": "linear"}}
            for i, c in enumerate(counts)
        ],
    }


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(-2**40, 2**40),
    width=st.integers(1, 9),
    height=st.integers(1, 9),
    counts=st.lists(st.integers(0, 30), max_size=4),
)
def test_placement_draws_the_cells_a_popped_free_list_would(seed, width, height, counts):
    config = _placement_config(seed, width, height, counts)
    # Every grid cell listed in x-major order; each agent pops a random one.
    rng = random.Random(seed)
    free = [(x, y) for x in range(width) for y in range(height)]
    if sum(counts) > len(free):
        with pytest.raises(ScenarioError, match="^grid too small for the declared agent count$"):
            build_environment(config)
        return
    expected = [free.pop(rng.randrange(len(free))) for _ in range(sum(counts))]
    env = build_environment(config)
    assert [a.attributes["position"] for a in env.agents()] == expected
    assert set(env.space.cells) == set(expected)


def test_placement_memory_follows_the_agent_count():
    tracemalloc.start()
    try:
        env = build_environment(_placement_config(3, 1000, 1000, [2]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert env.space.population == 2
    assert peak < 2**20
