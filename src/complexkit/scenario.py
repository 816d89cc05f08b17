"""Scenario configuration for the agent engine.

A scenario is a JSON document declaring agent types, counts, strategies,
an optional movement grid, and a mandatory seed:

    {
      "seed": 42,
      "stimulus": 1.0,
      "grid": {"width": 20, "height": 20},
      "agent_types": [
        {"name": "drone", "count": 50, "strategy": "fixed",
         "rule": {"kind": "linear", "gain": 1.0}},
        {"name": "learner", "count": 50, "strategy": "adaptive",
         "rules": [{"kind": "linear", "gain": 0.5},
                   {"kind": "linear", "gain": 2.0}],
         "weights": [1, 1]}
      ]
    }

Agents get consecutive ids in declaration order and, when a grid is
present, distinct seeded start cells inside it.
"""

from __future__ import annotations

import random
from typing import Mapping

from .cas import Agent, AgentType, Environment, Population, Rule, Strategy, _run, rule_from_spec
from .cas import tick  # noqa: F401  bench/tracing.py rebinds scenario.tick
from .grid import Grid


class ScenarioError(ValueError):
    """Scenario document is missing or misusing a field."""


def _wrong_type(key: str, expected: str, value: object) -> str:
    return f"scenario {key} must be {expected}, got {type(value).__name__}"


def _rule(key: str, spec: object) -> Rule:
    if not isinstance(spec, Mapping):
        raise ScenarioError(_wrong_type(key, "an object", spec))
    return rule_from_spec(spec)


def _list(key: str, value: object) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(_wrong_type(key, "a list", value))
    return value


def build_environment(config: Mapping) -> Environment:
    if "seed" not in config:
        raise ScenarioError("scenario must declare an explicit seed")
    seed = int(config["seed"])
    type_specs = _list("agent_types", config.get("agent_types") or [])
    params = {"stimulus": float(config.get("stimulus", 1.0))}

    grid_spec = config.get("grid")
    placement_rng = random.Random(seed)
    free_cells: list[tuple[int, int]] | None = None
    if grid_spec is not None:
        if not isinstance(grid_spec, Mapping):
            raise ScenarioError(_wrong_type("grid", "an object", grid_spec))
        for key in ("width", "height"):
            if key not in grid_spec:
                raise ScenarioError(f"scenario grid needs grid.{key}")
        width, height = int(grid_spec["width"]), int(grid_spec["height"])
        free_cells = [(x, y) for x in range(width) for y in range(height)]

    populations = []
    types = []
    next_id = 0
    for index, spec in enumerate(type_specs):
        if not isinstance(spec, Mapping):
            raise ScenarioError(_wrong_type(f"agent_types[{index}]", "an object", spec))
        name = spec.get("name")
        if not name:
            raise ScenarioError("every agent type needs a name")
        count = int(spec.get("count", 1))
        kind = spec.get("strategy", "fixed")
        at = f"agent_types[{index}]"
        if kind == "fixed":
            if "rule" not in spec:
                raise ScenarioError(f"fixed type {name!r} needs a 'rule'")
            strategy = Strategy(rules=(_rule(f"{at}.rule", spec["rule"]),))
        elif kind == "adaptive":
            rules = tuple(
                _rule(f"{at}.rules[{i}]", r)
                for i, r in enumerate(_list(f"{at}.rules", spec.get("rules", ())))
            )
            if not rules:
                raise ScenarioError(f"adaptive type {name!r} needs 'rules'")
            weights = _list(f"{at}.weights", spec.get("weights", [1.0] * len(rules)))
            for i, w in enumerate(weights):
                if isinstance(w, bool) or not isinstance(w, (int, float)):
                    raise ScenarioError(_wrong_type(f"{at}.weights[{i}]", "a number", w))
            strategy = Strategy(rules=rules, weights=tuple(float(w) for w in weights))
        else:
            raise ScenarioError(f"unknown strategy kind: {kind!r}")

        schema = (("position", "integer"),) if free_cells is not None else ()
        types.append(AgentType(name=name, schema=schema))
        agents = []
        for _ in range(count):
            attributes = {}
            if free_cells is not None:
                if not free_cells:
                    raise ScenarioError("grid too small for the declared agent count")
                attributes["position"] = free_cells.pop(
                    placement_rng.randrange(len(free_cells))
                )
            agents.append(
                Agent(id=next_id, type_name=name, strategy=strategy, attributes=attributes)
            )
            next_id += 1
        populations.append(Population(name=name, agents=tuple(agents)))

    space = None
    if free_cells is not None:
        occupied = [
            a.attributes["position"] for pop in populations for a in pop.agents
        ]
        space = Grid(occupied)
    return Environment(
        populations=tuple(populations),
        seed=seed,
        space=space,
        params=params,
        types=tuple(types),
    )


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
