"""Agent-based engine for non-adaptive and adaptive complex systems.

Agents carry a type, attributes, a strategy, and an append-only memory of
(stimulus, response) events. A fixed strategy always applies its single
rule; an adaptive strategy draws among its rules proportionally to a
weight vector reinforced by the reward, which is the response itself (so
mean reward equals mean response). Ticks are synchronous and two-phase:
intended actions are computed from the time-t state only, then committed
with cell conflicts going to the lowest agent id. One engine over
per-agent lists, ``_run``, runs both ``tick`` and ``run_scenario`` (which
``scenario`` re-exports); it passes ``Rule.apply`` the agent's history as
a read-only sequence, valid only during the call (``Agent.memory`` is a
tuple). The whole trajectory is a pure function of (scenario, seed).

A reinforced weight is floored at zero, so only an infinite response, or
a finite one that overflows the sum, can make it non-finite. The engine
raises ValueError in that tick, naming the agent, the rule and the tick,
before any later draw reads the weight. A fixed agent has no weight, so
its response, infinite or not, is recorded and averaged as it is.

Random draws come from a counter-based SplitMix64 stream (Steele, Lea &
Flood 2014), not from a seeded generator. With ``mix`` SplitMix64's
finaliser, each agent-tick has the 64-bit counter
``mix(seed) + ((time << 32) + id) * 0xD1B54A32D192ED03`` (all mod 2**64),
which is injective in (time, id) for 0 <= time, id < 2**32, so draws do
not depend on the order in which agents are visited. Draw ``j`` is
``z = mix(counter + (j + 1) * 0x9E3779B97F4A7C15)``: draw 0 picks the
rule through ``u = (z >> 11) * 2**-53``, and draw 1 the move as
``moves[(z * len(moves)) >> 64]``, whose bias is at most
``len(moves) / 2**64``, with no rejection loop. The engine makes each
tick's draws for all agents in one pass over a big int holding one
128-bit lane per agent and draw (``_lanes``); they are the numbers the
scalar ``_draw(_counter(seed, time, id), j)`` gives.

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
import random
import struct
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Callable, Mapping, Sequence

from ._shared import weighted_index
from .grid import Grid, coarse_grain


class DegenerateStrategyError(ValueError):
    """Adaptive strategy whose weights are all zero cannot choose a rule."""


class FrameError(ValueError):
    """Observation frame refers to attributes no agent type declares."""


@dataclass(frozen=True)
class Rule:
    """A stimulus-response rule; ``apply(stimulus, memory) -> response``."""

    name: str
    apply: Callable[[float, Sequence[tuple[float, float]]], float]


def linear_rule(gain: float) -> Rule:
    return Rule(f"linear[{gain}]", lambda s, mem: gain * s)


def double_on_second_rule() -> Rule:
    """No reaction to the first stimulus, twice its magnitude to the second,
    repeating that pair forever."""
    return Rule("double-on-second", lambda s, mem: 0.0 if len(mem) % 2 == 0 else 2.0 * s)


@dataclass(frozen=True)
class Strategy:
    """Fixed strategies hold exactly one rule and no weights; adaptive
    strategies hold a non-negative weight per rule."""

    rules: tuple[Rule, ...]
    weights: tuple[float, ...] | None = None

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
                if not math.isfinite(w) or w < 0:
                    raise ValueError(f"weights must be finite and non-negative, got {w}")

    @property
    def adaptive(self) -> bool:
        return self.weights is not None


@dataclass(frozen=True)
class AgentType:
    name: str
    schema: tuple[tuple[str, str], ...] = ()  # (attribute, kind) pairs


@dataclass(frozen=True)
class Agent:
    id: int
    type_name: str
    strategy: Strategy
    attributes: Mapping[str, object] = field(default_factory=dict)
    memory: tuple[tuple[float, float], ...] = ()


@dataclass(frozen=True)
class Population:
    name: str
    agents: tuple[Agent, ...]


@dataclass(frozen=True)
class Environment:
    populations: tuple[Population, ...]
    seed: int
    time: int = 0
    space: Grid | None = None
    params: Mapping[str, object] = field(default_factory=dict)
    types: tuple[AgentType, ...] = ()

    def agents(self) -> list[Agent]:
        return [a for pop in self.populations for a in pop.agents]


@dataclass(frozen=True)
class Frame:
    """Observation scale and attribute projection; projection None means all."""

    scale: int = 1
    projection: frozenset[str] | None = None

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")


@dataclass(frozen=True)
class Observation:
    time: int
    agents: tuple[tuple[int, str, tuple[tuple[str, object], ...]], ...]
    grid: Grid | None


def respond(agent: Agent, stimulus: float, rule_index: int | None = None) -> tuple[float, Agent]:
    """Apply the selected rule to (stimulus, memory); returns the response and
    the agent with the event appended to memory."""
    _check_stimulus(stimulus)
    idx = 0 if rule_index is None else rule_index
    rule = agent.strategy.rules[idx]
    response = rule.apply(stimulus, agent.memory)
    updated = replace(agent, memory=agent.memory + ((stimulus, response),))
    return response, updated


def _check_stimulus(stimulus: float) -> None:
    if not math.isfinite(stimulus):
        raise ValueError(f"stimulus must be finite, got {stimulus}")


def _floor(weight: float) -> float:
    """A reinforced weight, floored at zero (NaN and -0.0 give 0.0)."""
    return weight if weight > 0.0 else 0.0


def _draw_rule(agent_id: int, weights: Sequence[float], u: float) -> int:
    total = sum(weights)
    if total <= 0.0:
        raise DegenerateStrategyError(f"agent {agent_id} has an all-zero weight vector")
    return weighted_index(weights, total, u)


def select_rule(agent: Agent, context: float, rng: random.Random) -> int:
    """Fixed strategies always pick rule 0; adaptive strategies draw an index
    proportionally to their current weights, from one ``rng.random()``.

    ``context`` is ignored. The engine (``tick``, ``run_scenario``) does
    not call this: it draws each agent-tick's rule from that agent-tick's
    SplitMix64 lane, so this draw does not reproduce the engine's, and an
    adaptive agent may get another rule here than in the engine.
    """
    weights = agent.strategy.weights
    return 0 if weights is None else _draw_rule(agent.id, weights, rng.random())


def reinforce(agent: Agent, rule_index: int, reward: float) -> Agent:
    """Add ``reward`` to the chosen rule's weight, floored at zero."""
    if not agent.strategy.adaptive:
        return agent
    weights = list(agent.strategy.weights)
    weights[rule_index] = _floor(weights[rule_index] + reward)
    return replace(agent, strategy=replace(agent.strategy, weights=tuple(weights)))


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


def _run(env: Environment, ticks: int) -> tuple[Environment, list[float]]:
    """Run ``ticks`` ticks over per-agent lists kept in the output's
    ``env.agents()`` order; returns the new environment and each tick's
    mean response, summed in that order."""
    if ticks == 0:
        return env, []
    stimulus = float(env.params.get("stimulus", 1.0))
    members = [sorted(pop.agents, key=lambda a: a.id) for pop in env.populations]
    agents = [a for pop in members for a in pop]
    n, space = len(agents), env.space
    if n:
        _check_stimulus(stimulus)
    ids = [a.id for a in agents]
    rules = [a.strategy.rules for a in agents]
    weights = [None if a.strategy.weights is None else list(a.strategy.weights) for a in agents]
    memories = [list(a.memory) for a in agents]
    moves = () if space is None else space.topology.offsets
    degree = len(moves)
    positions = [a.attributes.get("position") if moves else None for a in agents]
    adaptive = any(w is not None for w in weights)
    draws = _lanes(ids, (0,) * adaptive + (1,) * bool(moves))
    move_at = n * adaptive  # draw 1's lanes follow draw 0's
    # Each (agent, rule)'s last event with a non-zero float response. The
    # stimulus is the same every tick, so an equal response is an equal
    # event; ±0.0 compare equal and NaN equals nothing, so neither is reused.
    events = [[None] * len(r) for r in rules]
    targets, responses, means = [None] * n, [0.0] * n, []
    inf = math.inf
    by_id = sorted(range(n), key=ids.__getitem__)
    for time in range(env.time, env.time + ticks):
        z = draws(_counter(env.seed, time, 0))
        for i in range(n):
            w = weights[i]
            idx = 0 if w is None else _draw_rule(ids[i], w, (z[i] >> 11) * _UNIT)
            memory = memories[i]
            responses[i] = r = rules[i][idx].apply(stimulus, memory)
            if type(r) is float and r:
                event = events[i][idx]
                if event is None or event[1] != r:
                    event = events[i][idx] = (stimulus, r)
            else:
                event = (stimulus, r)
            memory.append(event)
            if w is not None:
                w[idx] = weight = _floor(w[idx] + r)
                if weight == inf:
                    raise ValueError(f"agent {ids[i]} rule {idx}: reinforced weight overflowed "
                                     f"to inf in tick {time + 1}")
            if positions[i] is not None:
                x, y = positions[i]
                dx, dy = moves[(z[move_at + i] * degree) >> 64]
                targets[i] = (x + dx, y + dy)
        claimed = set()
        for i in by_id:
            if targets[i] is not None:
                if targets[i] in claimed:
                    targets[i] = tuple(positions[i])
                claimed.add(targets[i])
                positions[i] = targets[i]
        means.append(sum(responses) / n if n else 0.0)
    for i, memory in enumerate(memories):  # in place: no GC pass sees a list and its tuple
        memories[i] = tuple(memory)
    rebuilt = iter([
        Agent(a.id, a.type_name, a.strategy if w is None else Strategy(a.strategy.rules, tuple(w)),
              dict(a.attributes) if p is None else {**a.attributes, "position": p}, m)
        for a, w, p, m in zip(agents, weights, positions, memories)
    ])
    populations = tuple(Population(pop.name, tuple(islice(rebuilt, len(group))))
                        for pop, group in zip(env.populations, members))
    if space is not None:
        space = Grid([positions[i] for i in by_id if positions[i] is not None], space.topology)
    return replace(env, populations=populations, space=space, time=env.time + ticks), means


def tick(env: Environment) -> Environment:
    """One synchronous two-phase update of every agent: phase 1 computes each
    agent's response and move from the time-t state, phase 2 commits the
    moves in ascending id order, giving a contested cell to the lowest id
    (losers stay put)."""
    return _run(env, 1)[0]


def run_scenario(env: Environment, ticks: int) -> tuple[Environment, list[dict]]:
    """Run ``ticks`` synchronous updates, collecting one metrics row per tick:
    tick number, agent count, mean response, and mean reward (the reward is
    the response, so the two columns are equal)."""
    if ticks < 0:
        raise ValueError("tick count must be >= 0")
    start, agents = env.time, len(env.agents())
    env, means = _run(env, ticks)
    return env, [
        {"tick": start + k, "agents": agents, "mean_response": mean, "mean_reward": mean}
        for k, mean in enumerate(means, start=1)
    ]


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
