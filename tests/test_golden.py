"""Golden fixtures: sha256 digests of trajectories and CLI outputs.

The digests were taken by this module's ``main`` on the commit "Draw
agent randomness from a counter-based SplitMix64 stream", which replaced
the Mersenne Twister the agent engine reseeded per agent and tick. Any
other change to the agent engine must keep every one of them; a change
that means to move a trajectory regenerates them and says so. To
regenerate, run ``PYTHONPATH=src python tests/test_golden.py`` from the
repository root and paste the ``GOLDEN`` literal it prints over the one
below.
"""

import contextlib
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

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
    "cas_snapshot": "576ff1b0ed0d13408de528eb59c70aad308349556edadbe280672c777d86411f",
    "cas_metrics": "9142000e1e997b85acd858dd3ada466218eef92ee2211f00ae6e631a2442ad45",
    "mixed_permuted_snapshot": "85e54ed7830cc9d99ca56c67866afb2b69009c0b06dd0bb1a519a6ac562bdb76",
    "mixed_permuted_metrics": "9e5d2e6816d45862b130f737eea8434cdc94d94962ee1d0097e9360476910cd9",
    "cas_run_csv": "86e6fb0f5da5b3973df32e9afa2e24312356af2c2d64ad3d3038d76d449656ff",
    "ga_coevolve_csv": "20ed441b4c177eeec94ca0e30f125003b7156d32259b305e058394895613c964",
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


def trajectory_digests(env: Environment, ticks: int) -> tuple[str, str]:
    env, metrics = run_scenario(env, ticks)
    return digest(snapshot(env)), digest(metrics)


def cas_run_csv_digest(tmp_path: Path) -> str:
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(MIXED_SCENARIO))
    out = tmp_path / "cas.csv"
    assert execute(["cas", "run", "--config", str(config), "--metrics", str(out)]) == 0
    return digest(out.read_bytes())


def ga_coevolve_csv_digest(tmp_path: Path) -> str:
    out = tmp_path / "ga.csv"
    assert execute([
        "ga", "run", "--problem", "coevolve", "--gens", "3", "--pop", "12",
        "--seed", "5", "--metrics", str(out),
    ]) == 0
    return digest(out.read_bytes())


def test_acceptance_scenario_trajectory():
    assert trajectory_digests(build_environment(CAS_SCENARIO), 100) == (
        GOLDEN["cas_snapshot"], GOLDEN["cas_metrics"])


def test_permuted_population_trajectory():
    # Metrics sum in env.agents() order: populations in order, ids
    # ascending within each.
    assert trajectory_digests(permuted(build_environment(MIXED_SCENARIO)), 60) == (
        GOLDEN["mixed_permuted_snapshot"], GOLDEN["mixed_permuted_metrics"])


def test_cas_run_csv_bytes(tmp_path):
    assert cas_run_csv_digest(tmp_path) == GOLDEN["cas_run_csv"]


def test_ga_coevolve_csv_bytes(tmp_path):
    assert ga_coevolve_csv_digest(tmp_path) == GOLDEN["ga_coevolve_csv"]


def main() -> None:
    """Print the current digests as a ``GOLDEN`` literal to paste above."""
    cas = trajectory_digests(build_environment(CAS_SCENARIO), 100)
    mixed = trajectory_digests(permuted(build_environment(MIXED_SCENARIO)), 60)
    # The CLI's own stdout goes to stderr, so stdout holds only the literal.
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        current = {
            "cas_snapshot": cas[0],
            "cas_metrics": cas[1],
            "mixed_permuted_snapshot": mixed[0],
            "mixed_permuted_metrics": mixed[1],
            "cas_run_csv": cas_run_csv_digest(Path(tmp)),
            "ga_coevolve_csv": ga_coevolve_csv_digest(Path(tmp)),
        }
    print("GOLDEN = {")
    for name, value in current.items():
        print(f'    "{name}": "{value}",')
    print("}")


if __name__ == "__main__":
    main()
