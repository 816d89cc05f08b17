"""Golden fixtures: sha256 digests of trajectories and CLI outputs.

The digests were taken from the replace-based agent tick, before the
array-based engine replaced it; any change to the agent engine must keep
every one of them. A change that means to move a trajectory (a new random
stream, say) regenerates them and says so.
"""

import hashlib
import json
import random

from complexkit.cas import Environment, Population, snapshot
from complexkit.cli import execute
from complexkit.scenario import build_environment, run_scenario

from test_acceptance import CAS_SCENARIO

# Non-dyadic gains make the per-tick mean depend on summation order (the
# permuted variant's means differ from the declared order's in the last
# bits); the negative gain drives weights to the zero floor;
# double_on_second reads the memory.
MIXED_SCENARIO = {
    "seed": 2024,
    "ticks": 60,
    "stimulus": 0.7,
    "grid": {"width": 9, "height": 9},
    "agent_types": [
        {"name": "drone", "count": 12, "strategy": "fixed",
         "rule": {"kind": "linear", "gain": 0.3}},
        {"name": "pair", "count": 8, "strategy": "fixed",
         "rule": {"kind": "double_on_second"}},
        {"name": "learner", "count": 20, "strategy": "adaptive",
         "rules": [{"kind": "linear", "gain": -1.1}, {"kind": "linear", "gain": 1.7},
                   {"kind": "double_on_second"}],
         "weights": [1, 2, 0.5]},
    ],
}

GOLDEN = {
    "cas_snapshot": "383e40499d55a36f1dd4fae577136e346c73cac514ea7e06f57353243c5cc9a7",
    "cas_metrics": "3fd50ce7d3dc52845f7b9dd5c1797698b0069d6a0cc6ab799afd51016750e9e1",
    "mixed_permuted_snapshot": "15022e2a938a13eba20f5ccbd491938a091f586c7a6e481a3c4f19599cde99f6",
    "mixed_permuted_metrics": "52ae3b1d0c017a66af7bc69164be44349c4d45be1e68812cd1652855ff176615",
    "cas_run_csv": "acb102a05eddf48ba0d3c5cf4e26393453757b51683c28525e2218e81ef24c65",
    "ga_coevolve_csv": "0a8d884a42d45515eeb3016ed324781174b56edc6edab199b8c214d1d09a0627",
}


def digest(value) -> str:
    data = value if isinstance(value, bytes) else repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def permuted(env: Environment) -> Environment:
    agents = env.agents()
    random.Random(777).shuffle(agents)
    half = len(agents) // 2
    return Environment(
        populations=(Population("a", tuple(agents[:half])), Population("b", tuple(agents[half:]))),
        seed=env.seed,
        space=env.space,
        params=env.params,
        types=env.types,
    )


def test_acceptance_scenario_trajectory():
    env, metrics = run_scenario(build_environment(CAS_SCENARIO), 100)
    assert digest(snapshot(env)) == GOLDEN["cas_snapshot"]
    assert digest(metrics) == GOLDEN["cas_metrics"]


def test_permuted_population_trajectory():
    # Metrics sum in env.agents() order: populations in order, ids
    # ascending within each.
    env, metrics = run_scenario(permuted(build_environment(MIXED_SCENARIO)), 60)
    assert digest(snapshot(env)) == GOLDEN["mixed_permuted_snapshot"]
    assert digest(metrics) == GOLDEN["mixed_permuted_metrics"]


def test_cas_run_csv_bytes(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(MIXED_SCENARIO))
    out = tmp_path / "cas.csv"
    assert execute(["cas", "run", "--config", str(config), "--metrics", str(out)]) == 0
    assert digest(out.read_bytes()) == GOLDEN["cas_run_csv"]


def test_ga_coevolve_csv_bytes(tmp_path):
    out = tmp_path / "ga.csv"
    assert execute([
        "ga", "run", "--problem", "coevolve", "--gens", "3", "--pop", "12",
        "--seed", "5", "--metrics", str(out),
    ]) == 0
    assert digest(out.read_bytes()) == GOLDEN["ga_coevolve_csv"]
