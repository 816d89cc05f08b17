"""Agent-based engine for non-adaptive and adaptive complex systems.

Agents carry a type, attributes, a strategy, and an append-only memory of
(stimulus, response) events. A fixed strategy always applies its single
rule; an adaptive strategy draws among its rules proportionally to a
weight vector reinforced by the reward, which is the response itself (so
mean reward equals mean response). Ticks are synchronous and two-phase:
intended actions are computed from the time-t state only, then committed
with cell conflicts going to the lowest agent id. One engine over
per-agent lists, ``_prepare``, runs ``tick``, ``run_scenario`` (which
``scenario`` re-exports) and ``episode_runner``; it passes ``Rule.apply``
the agent's history as a read-only sequence, valid only during the call
(``Agent.memory`` is a tuple). The whole trajectory is a pure function of
(scenario, seed). ``_prepare`` reads a run's fixed part from the
environment once (agent order, rules, stimulus, draw layout) and returns
a function that runs the ticks from given start weights: ``tick`` and
``run_scenario`` call it once and build the final environment.
``episode_runner`` is for short runs that repeat with new weights, such
as the co-evolution episodes: it makes every tick's draws once, and each
run returns the means only, building no record. Every other run makes
each tick's draws when it reaches that tick, so its draw memory stays
O(agents).

A reinforced weight is floored at zero, so only an infinite response, or
a finite one that overflows the sum, can make it non-finite. The engine
raises ValueError in that tick, naming the agent, the rule and the tick,
before any later draw reads the weight. A fixed agent has no weight, so
its response, infinite or not, is recorded and averaged as it is.

Random draws come from a counter-based SplitMix64 stream (Steele, Lea &
Flood 2014), not from a seeded generator. With ``mix`` SplitMix64's
finaliser, each agent-tick has the 64-bit counter
``mix(seed) + ((time << 32) + id) * 0xD1B54A32D192ED03`` (all mod 2**64),
which is injective in (time, id) for 0 <= time, id < 2**32 (the engine
refuses a start time, tick count or agent id outside that domain), so
draws do not depend on the order in which agents are visited. Draw ``j`` is
``z = mix(counter + (j + 1) * 0x9E3779B97F4A7C15)``: draw 0 picks the
rule through ``u = (z >> 11) * 2**-53``, and draw 1 the move as
``moves[(z * len(moves)) >> 64]``, whose bias is at most
``len(moves) / 2**64``, with no rejection loop. The engine makes each
tick's draws for all agents in one pass over a big int holding one
128-bit lane per agent and draw (``_lanes``); they are the numbers the
scalar ``_draw(_counter(seed, time, id), j)`` gives. The tick's row then
holds them as ready values, each agent's ``u`` and step, so the
per-agent loop only reads them.

An agent's history repeats one event tuple while a rule's non-zero float
response stays the same, so ``Agent.memory`` may hold one tuple object
many times; its values, types and signs are those of each call's
response.

The engine uses no other engine: it imports ``grid`` (``Grid`` and the
``coarse_grain`` of ``observe``) and ``_shared`` (the weighted draw that
``dynamics`` uses for its branches too).
"""

from __future__ import annotations

import math
import struct
from itertools import islice
from typing import Callable, Mapping, Sequence

from ._shared import _Record, as_finite, as_integer, weighted_index
from .grid import Grid, coarse_grain


class DegenerateStrategyError(ValueError):
    """Adaptive strategy whose weights are all zero cannot choose a rule."""


class FrameError(ValueError):
    """Observation frame refers to attributes no agent type declares."""


class Rule(_Record):
    """A stimulus-response rule; ``apply(stimulus, memory) -> response``."""

    _fields = ("name", "apply")

    def __init__(self, name: str, apply: Callable[[float, Sequence[tuple[float, float]]], float]):
        self.__dict__.update(name=name, apply=apply)


def linear_rule(gain: float) -> Rule:
    as_finite("gain", gain)
    return Rule(f"linear[{gain}]", lambda s, mem: gain * s)


def double_on_second_rule() -> Rule:
    """No reaction to the first stimulus, twice its magnitude to the second,
    repeating that pair forever."""
    return Rule("double-on-second", lambda s, mem: 0.0 if len(mem) % 2 == 0 else 2.0 * s)


class Strategy(_Record):
    """Fixed strategies hold exactly one rule and no weights; adaptive
    strategies hold a non-negative weight per rule. Both are kept as
    tuples."""

    _fields = ("rules", "weights")

    def __init__(self, rules: Sequence[Rule], weights: Sequence[float] | None = None):
        rules = tuple(rules)
        if not rules:
            raise ValueError("a strategy needs at least one rule")
        if weights is None:
            if len(rules) != 1:
                raise ValueError("a fixed strategy has exactly one rule")
        else:
            weights = tuple(weights)
            _check_weights(len(rules), weights)
        self.__dict__.update(rules=rules, weights=weights)

    @property
    def adaptive(self) -> bool:
        return self.weights is not None


def _check_weights(count: int, weights: tuple[float, ...]) -> None:
    """Refuse an adaptive weight vector unless it holds ``count`` finite,
    non-negative real numbers."""
    if len(weights) != count:
        raise ValueError("need one weight per rule")
    for w in weights:
        as_finite("weight", w, 0)


class AgentType(_Record):
    """``schema`` holds (attribute, kind) pairs."""

    _fields = ("name", "schema")

    def __init__(self, name: str, schema: tuple[tuple[str, str], ...] = ()):
        self.__dict__.update(name=name, schema=schema)


class Agent(_Record):
    """``attributes`` of None, the default, is a new empty dict."""

    _fields = ("id", "type_name", "strategy", "attributes", "memory")

    def __init__(self, id: int, type_name: str, strategy: Strategy,
                 attributes: Mapping[str, object] | None = None,
                 memory: tuple[tuple[float, float], ...] = ()):
        self.__dict__.update(id=id, type_name=type_name, strategy=strategy,
                             attributes={} if attributes is None else attributes, memory=memory)


class Population(_Record):
    _fields = ("name", "agents")

    def __init__(self, name: str, agents: tuple[Agent, ...]):
        self.__dict__.update(name=name, agents=agents)


class Environment(_Record):
    """``params`` of None, the default, is a new empty dict."""

    _fields = ("populations", "seed", "time", "space", "params", "types")

    def __init__(self, populations: tuple[Population, ...], seed: int, time: int = 0,
                 space: Grid | None = None, params: Mapping[str, object] | None = None,
                 types: tuple[AgentType, ...] = ()):
        self.__dict__.update(populations=populations, seed=seed, time=time, space=space,
                             params={} if params is None else params, types=types)

    def agents(self) -> list[Agent]:
        return [a for pop in self.populations for a in pop.agents]


class Frame(_Record):
    """Observation scale and attribute projection; projection None means all."""

    _fields = ("scale", "projection")

    def __init__(self, scale: int = 1, projection: frozenset[str] | None = None):
        as_integer("scale", scale, 1)
        self.__dict__.update(scale=scale, projection=projection)


class Observation(_Record):
    _fields = ("time", "agents", "grid")

    def __init__(self, time: int,
                 agents: tuple[tuple[int, str, tuple[tuple[str, object], ...]], ...],
                 grid: Grid | None):
        self.__dict__.update(time=time, agents=agents, grid=grid)


def _rule_index(agent: Agent, i) -> int:
    """``i`` as an int, if it names one of the agent's rules."""
    i, count = as_integer("rule index", i, 0), len(agent.strategy.rules)
    if i >= count:
        raise ValueError(f"rule index must be < {count}, got {i}")
    return i


def respond(agent: Agent, stimulus: float, rule_index: int | None = None) -> tuple[float, Agent]:
    """Apply the selected rule to (stimulus, memory); returns the response and
    the agent with the event appended to memory."""
    as_finite("stimulus", stimulus)
    rule = agent.strategy.rules[0 if rule_index is None else _rule_index(agent, rule_index)]
    response = rule.apply(stimulus, agent.memory)
    return response, agent._replace(memory=agent.memory + ((stimulus, response),))


def select_rule(agent: Agent, u: float) -> int:
    """The rule index that a uniform ``u`` in [0, 1] picks: 0 for a fixed
    strategy, else one by the current weights. With the agent-tick's
    ``u``, from its draw 0 as ``(z >> 11) * 2**-53``, it is the engine's."""
    as_finite("draw", u, 0, 1)
    weights = agent.strategy.weights
    if weights is None:
        return 0
    total = sum(weights)
    if total <= 0.0:
        raise DegenerateStrategyError(f"agent {agent.id} has an all-zero weight vector")
    return weighted_index(weights, total, u)


def reinforce(agent: Agent, rule_index: int, reward: float) -> Agent:
    """Add ``reward`` to the chosen rule's weight, floored at zero."""
    rule_index = _rule_index(agent, rule_index)
    if not agent.strategy.adaptive:
        return agent
    weights = list(agent.strategy.weights)
    weight = weights[rule_index] + reward
    weights[rule_index] = weight if weight > 0.0 else 0.0  # NaN and -0.0 give 0.0
    return agent._replace(strategy=agent.strategy._replace(weights=tuple(weights)))


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment: 2**64 over the golden ratio, odd
_SPREAD = 0xD1B54A32D192ED03  # odd, so (time, id) -> counter stays injective mod 2**64
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # Mix13's multipliers
_MASK = (1 << 64) - 1
_UNIT = 2.0 ** -53


def _mix64(z: int) -> int:
    """SplitMix64's finaliser (Stafford's Mix13), a bijection on 64-bit ints."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _counter(seed: int, time: int, agent_id: int) -> int:
    """The 64-bit counter of one agent-tick: the mixed seed plus
    ``((time << 32) + agent_id) * _SPREAD``, modulo 2**64. Injective in
    (time, agent_id) for 0 <= time, agent_id < 2**32 at a fixed seed."""
    return (_mix64(seed & _MASK) + ((time << 32) + agent_id) * _SPREAD) & _MASK


def _draw(counter: int, j: int) -> int:
    """Draw ``j`` of a counter's stream: the (j+1)-th SplitMix64 output
    from state ``counter``."""
    return _mix64((counter + (j + 1) * _GAMMA) & _MASK)


def _lanes(ids: Sequence[int], js: Sequence[int]) -> Callable[[int], tuple[int, ...]]:
    """Each draw ``j`` in ``js`` (outer) of each agent in ``ids`` (inner) at
    one tick, from that tick's ``_counter(seed, time, 0)``: ``_draw``'s
    arithmetic on one big int with a 128-bit lane per value. A lane's
    upper half gives the 64x64-bit products room, and the right shifts
    pull a neighbour's bits only into the upper half, which the lane mask
    clears before each multiply and the unpacking skips."""
    layout = struct.Struct("<" + "Q8x" * (len(ids) * len(js)))
    start = int.from_bytes(layout.pack(*[(a * _SPREAD + (j + 1) * _GAMMA) & _MASK
                                         for j in js for a in ids]), "little")
    ones = int.from_bytes(layout.pack(*[1] * (len(ids) * len(js))), "little")
    mask = ones * _MASK

    def draws(base: int) -> tuple[int, ...]:
        z = (start + base * ones) & mask
        z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        return layout.unpack((z ^ (z >> 31)).to_bytes(layout.size, "little"))

    return draws


def _prepare(env: Environment, ticks: int, keep_rows: bool = False
             ) -> Callable[[Sequence[float] | None], tuple[list[float], Callable[[], Environment]]]:
    """The fixed part of ``ticks`` ticks from ``env``: returns ``run(weights)``,
    which runs them over per-agent lists kept in the output's
    ``env.agents()`` order, every adaptive agent starting from ``weights``
    or, if None, its own, and returns each tick's mean response, summed in
    that order, and a function that builds the new environment.

    A tick's draw row holds its ready values: each agent's ``u`` and each
    agent's step. With ``keep_rows`` every row is made here, once, and each
    run reads them; without, a run makes each row when it reaches its tick.
    It checks the stimulus, the seed, the time and each agent id first."""
    stimulus = float(as_finite("stimulus", env.params.get("stimulus", 1.0)))
    seed = as_integer("seed", env.seed)
    if as_integer("time", env.time, 0) + ticks > 1 << 32:
        raise ValueError(f"time + tick count must be <= {1 << 32}, got {env.time + ticks}")
    for a in env.agents():
        if as_integer("agent id", a.id, 0) >= 1 << 32:
            raise ValueError(f"agent id must be < {1 << 32}, got {a.id}")
    members = [sorted(pop.agents, key=lambda a: a.id) for pop in env.populations]
    agents = [a for pop in members for a in pop]
    n, space = len(agents), env.space
    ids = [a.id for a in agents]
    applies = [[rule.apply for rule in a.strategy.rules] for a in agents]
    own = [a.strategy.weights for a in agents]
    moves = () if space is None else space.topology.offsets
    degree = len(moves)
    start = [a.attributes.get("position") if moves else None for a in agents]
    movers = sorted((i for i in range(n) if start[i] is not None), key=ids.__getitem__)
    drawn = n * any(w is not None for w in own)  # draw 1's lanes follow draw 0's
    draws = _lanes(ids, (0,) * bool(drawn) + (1,) * bool(moves))
    times = range(env.time, env.time + ticks)

    def row(time: int) -> tuple[list[float], list[tuple[int, int]]]:
        z = draws(_counter(seed, time, 0))
        return ([(v >> 11) * _UNIT for v in z[:drawn]],
                [moves[(v * degree) >> 64] for v in z[drawn:]])

    kept = [row(time) for time in times] if keep_rows else None
    inf = math.inf

    def run(vector: Sequence[float] | None) -> tuple[list[float], Callable[[], Environment]]:
        weights = [None if w is None else list(w if vector is None else vector) for w in own]
        memories = [list(a.memory) for a in agents]
        positions = list(start)
        # Each (agent, rule)'s last event with a non-zero float response. The
        # stimulus is the same every tick, so an equal response is an equal
        # event; ±0.0 compare equal and NaN equals nothing, so neither is reused.
        events = [[None] * len(calls) for calls in applies]
        responses, means = [0.0] * n, []
        for time, (us, steps) in zip(times, map(row, times) if kept is None else kept):
            for i in range(n):
                w = weights[i]
                if w is None:
                    idx = 0
                else:
                    total = sum(w)  # not a running total: 3.12's sum is compensated
                    if total <= 0.0:
                        raise DegenerateStrategyError(
                            f"agent {ids[i]} has an all-zero weight vector")
                    idx = weighted_index(w, total, us[i])
                memory = memories[i]
                responses[i] = r = applies[i][idx](stimulus, memory)
                if type(r) is float and r:
                    event = events[i][idx]
                    if event is None or event[1] != r:
                        event = events[i][idx] = (stimulus, r)
                else:
                    event = (stimulus, r)
                memory.append(event)
                if w is not None:
                    weight = w[idx] + r
                    w[idx] = weight = weight if weight > 0.0 else 0.0  # NaN and -0.0 give 0.0
                    if weight == inf:
                        raise ValueError(f"agent {ids[i]} rule {idx}: reinforced weight "
                                         f"overflowed to inf in tick {time + 1}")
            if movers:  # phase 2: each mover's own time-t cell plus its step, by id
                claimed = set()
                for i in movers:
                    x, y = positions[i]
                    dx, dy = steps[i]
                    target = (x + dx, y + dy)
                    if target in claimed:
                        target = tuple(positions[i])
                    claimed.add(target)
                    positions[i] = target
            means.append(sum(responses) / n if n else 0.0)

        def final() -> Environment:
            for i, memory in enumerate(memories):  # in place: no GC pass sees a list and its tuple
                memories[i] = tuple(memory)
            rebuilt = iter([
                Agent(a.id, a.type_name,
                      a.strategy if w is None else Strategy(a.strategy.rules, tuple(w)),
                      dict(a.attributes) if p is None else {**a.attributes, "position": p}, m)
                for a, w, p, m in zip(agents, weights, positions, memories)
            ])
            populations = tuple(Population(pop.name, tuple(islice(rebuilt, len(group))))
                                for pop, group in zip(env.populations, members))
            grid = space
            if grid is not None:
                grid = Grid([positions[i] for i in movers], grid.topology)
            return env._replace(populations=populations, space=grid, time=env.time + ticks)

        return means, final

    return run


def tick(env: Environment) -> Environment:
    """One synchronous two-phase update of every agent: phase 1 computes each
    agent's response and move from the time-t state, phase 2 commits the
    moves in ascending id order, giving a contested cell to the lowest id
    (losers stay put)."""
    return _prepare(env, 1)(None)[1]()


def run_scenario(env: Environment, ticks: int) -> tuple[Environment, list[dict]]:
    """Run ``ticks`` synchronous updates, collecting one metrics row per tick:
    tick number, agent count, mean response, and mean reward (the reward is
    the response, so the two columns are equal)."""
    if not as_integer("tick count", ticks, 0):
        return env, []
    start, agents = env.time, len(env.agents())
    means, final = _prepare(env, ticks)(None)
    return final(), [
        {"tick": start + k, "agents": agents, "mean_response": mean, "mean_reward": mean}
        for k, mean in enumerate(means, start=1)
    ]


def episode_runner(env: Environment, ticks: int) -> Callable[[Sequence[float]], list[float]]:
    """A function ``run(weights)`` for short runs of ``env`` that repeat
    with new weights: each tick's mean response over ``ticks`` ticks with
    every adaptive agent starting from ``weights``, which ``run`` checks as
    ``Strategy`` does. It equals ``run_scenario``'s ``mean_response`` column
    for that environment, but builds neither it nor the final one, and
    moves no agent, since the means read no position: the agents' order,
    rules and memories, the stimulus and every tick's rule draws are
    prepared here, once, from ``env`` without its grid."""
    as_integer("tick count", ticks, 0)
    run = _prepare(env._replace(space=None), ticks, keep_rows=True)
    counts = {len(a.strategy.rules) for a in env.agents() if a.strategy.adaptive}

    def episode(weights: Sequence[float]) -> list[float]:
        weights = tuple(weights)
        for count in counts:
            _check_weights(count, weights)
        return run(weights)[0]

    return episode


def observe(env: Environment, frame: Frame) -> Observation:
    """Project the environment through a frame: only the projected attributes
    are visible, and spatial state is coarse-grained by the frame's scale."""
    known = {name for t in env.types for name, _ in t.schema}
    if not env.types:
        known = {name for a in env.agents() for name in a.attributes}
    if frame.projection is not None:
        unknown = frame.projection - known
        if unknown:
            raise FrameError(f"projection names unknown attributes: {sorted(unknown)}")
    agents = []
    for a in sorted(env.agents(), key=lambda a: a.id):
        attrs = tuple(
            sorted(
                (k, v)
                for k, v in a.attributes.items()
                if frame.projection is None or k in frame.projection
            )
        )
        agents.append((a.id, a.type_name, attrs))
    grid = None
    if env.space is not None:
        grid = coarse_grain(env.space, frame.scale)
    return Observation(time=env.time, agents=tuple(agents), grid=grid)


def snapshot(env: Environment) -> tuple:
    """Canonical structural snapshot for trajectory-equality comparisons;
    independent of agent list order."""
    agents = tuple(
        sorted(
            (
                a.id,
                a.type_name,
                tuple(sorted(a.attributes.items())),
                a.strategy.weights,
                a.memory,
            )
            for a in env.agents()
        )
    )
    space = None
    if env.space is not None:
        space = frozenset(env.space.cells.items())
    return (env.time, agents, space)
