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
present, distinct seeded start cells inside it. ``build_environment``
reads every value through ``_shared.checked``, the check the CLI applies
to its config values, so a value of the wrong JSON kind or out of range,
and a key the document's level does not know, raise a one-line
ScenarioError (defined in ``_shared``, re-exported here) that names it.
``ticks`` is a known key that only the CLI reads.

This module only loads configs. Running them is the agent engine's:
``run_scenario`` and ``tick`` live in ``cas`` and are re-exported here.
"""

from __future__ import annotations

import random
from bisect import bisect_right, insort
from typing import Mapping

from ._shared import ScenarioError, checked
from .cas import (Agent, AgentType, Environment, Population, Rule, Strategy,
                  double_on_second_rule, linear_rule)
from .cas import run_scenario  # noqa: F401  re-exported: the CLI and the package take it here
from .cas import tick  # noqa: F401  bench/tracing.py rebinds scenario.tick
from .grid import Grid


# The keys each level may hold. An agent type's keys depend on its strategy
# and a rule's on its kind, so these tables also list the choices for both.
_SCENARIO_KEYS = ("seed", "ticks", "stimulus", "grid", "agent_types")
_TYPE_KEYS = {"fixed": ("name", "count", "strategy", "rule"),
              "adaptive": ("name", "count", "strategy", "rules", "weights")}
_RULE_KEYS = {"linear": ("kind", "gain"), "double_on_second": ("kind",)}


def _rule(at: str, spec) -> Rule:
    checked(at, spec, dict)
    kind = checked(f"{at}.kind", spec.get("kind"), str, _RULE_KEYS)
    checked(at, spec, dict, _RULE_KEYS[kind])
    if kind == "linear":
        return linear_rule(checked(f"{at}.gain", spec.get("gain", 1.0), float))
    return double_on_second_rule()


def _free_cell(taken: list[int], r: int) -> int:
    """The number of the ``r``-th (from 0) cell not in the sorted list
    ``taken``: the least n with r + 1 free cells in 0..n."""
    lo, hi = r, r + len(taken)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid + 1 - bisect_right(taken, mid) > r:
            hi = mid
        else:
            lo = mid + 1
    return lo


def build_environment(config: Mapping) -> Environment:
    if "seed" not in checked("scenario", config, dict, _SCENARIO_KEYS):
        raise ScenarioError("scenario must declare an explicit seed")
    seed = checked("scenario seed", config["seed"], int)
    type_specs = checked("scenario agent_types", config.get("agent_types") or [], list)
    params = {"stimulus": checked("scenario stimulus", config.get("stimulus", 1.0), float)}

    grid_spec = config.get("grid")
    placement_rng = random.Random(seed)
    # Cell numbers x * height + y of the placed agents, sorted. Agent j
    # takes the r-th still-free cell, r = randrange(width * height - j).
    taken: list[int] | None = None
    if grid_spec is not None:
        checked("scenario grid", grid_spec, dict, ("width", "height"))
        for key in ("width", "height"):
            if key not in grid_spec:
                raise ScenarioError(f"scenario grid needs grid.{key}")
            checked(f"scenario grid.{key}", grid_spec[key], int, low=1)
        width, height = grid_spec["width"], grid_spec["height"]
        taken = []

    populations = []
    types = []
    next_id = 0
    for index, spec in enumerate(type_specs):
        at = f"scenario agent_types[{index}]"
        checked(at, spec, dict)
        kind = checked(f"{at}.strategy", spec.get("strategy", "fixed"), str, _TYPE_KEYS)
        checked(at, spec, dict, _TYPE_KEYS[kind])
        name = spec.get("name")
        if not name:
            raise ScenarioError("every agent type needs a name")
        checked(f"{at}.name", name, str)
        count = checked(f"{at}.count", spec.get("count", 1), int, low=0)
        if kind == "fixed":
            if "rule" not in spec:
                raise ScenarioError(f"fixed type {name!r} needs a 'rule'")
            strategy = Strategy(rules=(_rule(f"{at}.rule", spec["rule"]),))
        else:
            specs = checked(f"{at}.rules", spec.get("rules", ()), list)
            rules = tuple(_rule(f"{at}.rules[{i}]", r) for i, r in enumerate(specs))
            if not rules:
                raise ScenarioError(f"adaptive type {name!r} needs 'rules'")
            weights = checked(f"{at}.weights", spec.get("weights", [1.0] * len(rules)), list)
            strategy = Strategy(rules=rules, weights=tuple(
                float(checked(f"{at}.weights[{i}]", w, float)) for i, w in enumerate(weights)))

        schema = (("position", "integer"),) if taken is not None else ()
        types.append(AgentType(name=name, schema=schema))
        agents = []
        for _ in range(count):
            attributes = {}
            if taken is not None:
                free = width * height - len(taken)
                if not free:
                    raise ScenarioError("grid too small for the declared agent count")
                cell = _free_cell(taken, placement_rng.randrange(free))
                insort(taken, cell)
                attributes["position"] = divmod(cell, height)
            agents.append(
                Agent(id=next_id, type_name=name, strategy=strategy, attributes=attributes)
            )
            next_id += 1
        populations.append(Population(name=name, agents=tuple(agents)))

    space = None
    if taken is not None:
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
