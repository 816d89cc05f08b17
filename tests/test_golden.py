"""Golden fixtures: sha256 digests of trajectories and CLI outputs.

The agent digests were taken by this module's ``main`` on the commit
"Draw agent randomness from a counter-based SplitMix64 stream", which
replaced the Mersenne Twister the agent engine reseeded per agent and
tick. The dynamics digests were taken on the commit before the
Lyapunov estimators stopped materialising the orbit, the Life digests
on the commit before ``step`` became generation 1 of ``run``, and the
sparse-soup digests on the commit before two-state generations were
yielded packed; the soup's RLE and population CSV also match the
independent bitboard oracle in ``bench/workloads.py``. Any other change
to the engines must keep every one of them; a change that means to move
a trajectory regenerates them and says so. To
regenerate, run ``PYTHONPATH=src python tests/test_golden.py`` from the
repository root and paste the ``GOLDEN`` literal it prints over the one
below.
"""

import contextlib
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

from complexkit.cas import Environment, Population, snapshot
from complexkit.cli import execute
from complexkit.dynamics import (
    Branch,
    IterativeMap,
    divergence_rate,
    divergence_rate_two_trajectory,
    iterate,
)
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

# R-pentomino: its box grows in every direction, so the board re-packs
# often. The coloured one mixes ``A`` (state 1, like ``o``) and ``B``. The
# soup stays active for ~30 generations under hex B2/S34.
R_PENTOMINO_RLE = "x = 3, y = 3, rule = B3/S23\nb2o$2o$bo!"
COLOR_RLE = "x = 3, y = 3, rule = B3/S23\nbAB$BA$bB!"
HEX_SOUP_RLE = "x = 8, y = 8, rule = B3/S23\n2bobobo$2b2obobo$2b2o2bo$bo3b3o$3b3o$b3obo$o4b3o$2bo!"
# A sparse 64x64 soup (7 % live, seed 1): over 600 generations its board
# re-packs 18 times, and in the last ~40 the gliders it sends off stretch
# the box past ``_SPARSE`` cells per live cell, so it steps on the set.
SOUP_SIZE, SOUP_DENSITY, SOUP_SEED, SOUP_GENS = 64, 0.07, 1, 600
CLASSIFY_RLE = {
    "blinker": "x = 3, y = 1, rule = B3/S23\n3o!",
    "block": "x = 2, y = 2, rule = B3/S23\n2o$2o!",
    "glider": "x = 3, y = 3, rule = B3/S23\nbob$2bo$3o!",
}

# Three branches that keep [0, 1] invariant: logistic, tent and sine.
# Each dynamics digest pairs a result with the rng's next draw, so a
# change in how many draws a call takes shows too.
STOCHASTIC_MAP = IterativeMap((
    Branch(lambda x: 3.9 * x * (1.0 - x), lambda x: 3.9 * (1.0 - 2.0 * x), 0.5),
    Branch(lambda x: 1.98 * min(x, 1.0 - x), lambda x: 1.98 if x < 0.5 else -1.98, 0.3),
    Branch(lambda x: math.sin(math.pi * x), lambda x: math.pi * math.cos(math.pi * x), 0.2),
))

GOLDEN = {
    "cas_snapshot": "576ff1b0ed0d13408de528eb59c70aad308349556edadbe280672c777d86411f",
    "cas_metrics": "9142000e1e997b85acd858dd3ada466218eef92ee2211f00ae6e631a2442ad45",
    "mixed_permuted_snapshot": "85e54ed7830cc9d99ca56c67866afb2b69009c0b06dd0bb1a519a6ac562bdb76",
    "mixed_permuted_metrics": "9e5d2e6816d45862b130f737eea8434cdc94d94962ee1d0097e9360476910cd9",
    "cas_run_csv": "86e6fb0f5da5b3973df32e9afa2e24312356af2c2d64ad3d3038d76d449656ff",
    "ga_coevolve_csv": "20ed441b4c177eeec94ca0e30f125003b7156d32259b305e058394895613c964",
    "dynamics_lyapunov_csv": "3d9c59b000a1d70501d51e63e1e954a2b42261027c4e5864172521fba97ae233",
    "dynamics_sweep_csv": "223e5e4e29b4169db9bb9d2dc7768246afcf0dc44be19231beeba005bed7f57c",
    "stochastic_iterate": "263a3024a0c334735bba794849737b407badf050df1d5aa95ac5992b5648519e",
    "stochastic_divergence_rate": "72c65362c55aa24f84576aa0bb4a1f9c687aae95571a3011d28f3a2c734b7588",
    "stochastic_two_trajectory": "ce0c5b9bdeaec1977933e1c4fb5ba73a577dd1767a8c42f208df39ff984546cf",
    "life_run_rle": "25401a5565f45fc1f58a355aba47b877d3ad681752a5a5d2d8122aead7feb7aa",
    "life_run_frames": "4e2db995a7ec52032500f3642f1c66567a1df659029c4047768e393ff00b2366",
    "life_run_population_csv": "8a164a77f0c7ae71f81fcf967289b72ff5301a0147ce0a8a6d363a41fd872d9e",
    "life_hex_population_csv": "19f9f501c5a502bebd9bbce8a5ffe048ca9b03f32afd2453438dfc691dc9120b",
    "life_states3_rle": "7f13db97ab5fb70c268ce1469e6d25df52815e134a2430e58d00766883ce920f",
    "life_classify_stdout": "8347e489b99d5773701acf3a2e833cb5844798c928a5ed56b59d362a02af40de",
    "complexity_profile_csv": "9230a0b21c88c76c5f63b1fa4c714c53cf40fb85c9412ceee1539f6335e3c131",
    "life_soup_rle": "000db01d203516001690f8448a6f5337c20d469572b51651933ba06d21f71967",
    "life_soup_population_csv": "8ff322e7b1df9de42773e241ee06d3c090db76b02462438b3c1a28fbc50d34ca",
    "complexity_soup_profile_csv": "e32a312fe2898bbb798a4c8903e29b06f5155316296ac526a69f6716876b7230",
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


def dynamics_lyapunov_csv_digest(tmp_path: Path) -> str:
    out = tmp_path / "lyapunov.csv"
    assert execute([
        "dynamics", "lyapunov", "--r", "4.0", "--x0", "0.3", "--steps", "20000",
        "--seed", "1", "--out", str(out),
    ]) == 0
    return digest(out.read_bytes())


def dynamics_sweep_csv_digest(tmp_path: Path) -> str:
    out = tmp_path / "sweep.csv"
    assert execute([
        "dynamics", "sweep", "--r-from", "2.5", "--r-to", "4.0", "--r-step", "0.1",
        "--steps", "2000", "--burnin", "500", "--seed", "1", "--out", str(out),
    ]) == 0
    return digest(out.read_bytes())


def write_pattern(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def life_run_digests(tmp_path: Path) -> tuple[str, str, str]:
    """The RLE ``--out``, every ``--frames`` file and the population CSV of
    one square run."""
    out, metrics, frames = tmp_path / "final.rle", tmp_path / "population.csv", tmp_path / "frames"
    assert execute([
        "life", "run", "--pattern", write_pattern(tmp_path, "r.rle", R_PENTOMINO_RLE),
        "--gens", "60", "--seed", "1", "--out", str(out), "--metrics", str(metrics),
        "--frames", str(frames),
    ]) == 0
    files = sorted(frames.iterdir())
    assert len(files) == 61
    return (digest(out.read_bytes()), digest(tuple((f.name, f.read_bytes()) for f in files)),
            digest(metrics.read_bytes()))


def soup_plaintext() -> str:
    rng = random.Random(SOUP_SEED)
    return "".join(
        "".join("O" if rng.random() < SOUP_DENSITY else "." for _ in range(SOUP_SIZE)) + "\n"
        for _ in range(SOUP_SIZE)
    )


def life_soup_digests(tmp_path: Path) -> tuple[str, str, str]:
    """The RLE ``--out`` and population CSV of ``life run`` on the sparse
    soup, and the CSV of ``complexity profile`` over the same run."""
    soup = write_pattern(tmp_path, "soup.cells", soup_plaintext())
    out, metrics, profile = tmp_path / "soup.rle", tmp_path / "soup.csv", tmp_path / "profile.csv"
    assert execute([
        "life", "run", "--pattern", soup, "--gens", str(SOUP_GENS), "--seed", "1",
        "--out", str(out), "--metrics", str(metrics),
    ]) == 0
    assert execute([
        "complexity", "profile", "--pattern", soup, "--gens", str(SOUP_GENS),
        "--scales", "1,2,4,8", "--seed", "1", "--metrics", str(profile),
    ]) == 0
    return digest(out.read_bytes()), digest(metrics.read_bytes()), digest(profile.read_bytes())


def life_hex_population_digest(tmp_path: Path) -> str:
    metrics = tmp_path / "hex.csv"
    assert execute([
        "life", "run", "--pattern", write_pattern(tmp_path, "hex.rle", HEX_SOUP_RLE),
        "--topology", "hex", "--rule", "B2/S34", "--gens", "40", "--seed", "1",
        "--metrics", str(metrics),
    ]) == 0
    return digest(metrics.read_bytes())


def life_states3_digest(tmp_path: Path) -> str:
    out = tmp_path / "states3.rle"
    assert execute([
        "life", "run", "--pattern", write_pattern(tmp_path, "color.rle", COLOR_RLE),
        "--states", "3", "--gens", "30", "--seed", "1", "--out", str(out),
    ]) == 0
    return digest(out.read_bytes())


def life_classify_digest(tmp_path: Path) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        for name, text in CLASSIFY_RLE.items():
            assert execute([
                "life", "classify", "--pattern", write_pattern(tmp_path, f"{name}.rle", text),
                "--horizon", "16", "--seed", "1",
            ]) == 0
    return digest(stdout.getvalue().encode())


def complexity_profile_digest(tmp_path: Path) -> str:
    metrics = tmp_path / "profile.csv"
    assert execute([
        "complexity", "profile", "--pattern", write_pattern(tmp_path, "p.rle", R_PENTOMINO_RLE),
        "--gens", "40", "--scales", "1,2,4,8", "--seed", "1", "--metrics", str(metrics),
    ]) == 0
    return digest(metrics.read_bytes())


def stochastic_digests() -> tuple[str, str, str]:
    rng = random.Random(31)
    traj = iterate(STOCHASTIC_MAP, 0.3, 500, rng)
    orbit = digest((traj.states, traj.branch_log, rng.random()))
    rng = random.Random(32)
    lam = divergence_rate(STOCHASTIC_MAP, 0.3, 5000, burn_in=100, rng=rng)
    rate = digest((lam, rng.random()))
    rng = random.Random(33)
    lam = divergence_rate_two_trajectory(STOCHASTIC_MAP, 0.3, 5000, burn_in=100, rng=rng)
    return orbit, rate, digest((lam, rng.random()))


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


def test_dynamics_lyapunov_csv_bytes(tmp_path):
    assert dynamics_lyapunov_csv_digest(tmp_path) == GOLDEN["dynamics_lyapunov_csv"]


def test_dynamics_sweep_csv_bytes(tmp_path):
    assert dynamics_sweep_csv_digest(tmp_path) == GOLDEN["dynamics_sweep_csv"]


def test_stochastic_map_results_and_draws():
    assert stochastic_digests() == (
        GOLDEN["stochastic_iterate"],
        GOLDEN["stochastic_divergence_rate"],
        GOLDEN["stochastic_two_trajectory"],
    )


def test_life_run_outputs(tmp_path):
    assert life_run_digests(tmp_path) == (
        GOLDEN["life_run_rle"], GOLDEN["life_run_frames"], GOLDEN["life_run_population_csv"])


def test_life_soup_outputs(tmp_path):
    assert life_soup_digests(tmp_path) == (
        GOLDEN["life_soup_rle"], GOLDEN["life_soup_population_csv"],
        GOLDEN["complexity_soup_profile_csv"])


def test_life_hex_population_csv(tmp_path):
    assert life_hex_population_digest(tmp_path) == GOLDEN["life_hex_population_csv"]


def test_life_three_state_rle(tmp_path):
    assert life_states3_digest(tmp_path) == GOLDEN["life_states3_rle"]


def test_life_classify_stdout(tmp_path):
    assert life_classify_digest(tmp_path) == GOLDEN["life_classify_stdout"]


def test_complexity_profile_csv_bytes(tmp_path):
    assert complexity_profile_digest(tmp_path) == GOLDEN["complexity_profile_csv"]


def main() -> None:
    """Print the current digests as a ``GOLDEN`` literal to paste above."""
    cas = trajectory_digests(build_environment(CAS_SCENARIO), 100)
    mixed = trajectory_digests(permuted(build_environment(MIXED_SCENARIO)), 60)
    stochastic = stochastic_digests()
    # The CLI's own stdout goes to stderr, so stdout holds only the literal.
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        life_run = life_run_digests(Path(tmp))
        soup = life_soup_digests(Path(tmp))
        current = {
            "cas_snapshot": cas[0],
            "cas_metrics": cas[1],
            "mixed_permuted_snapshot": mixed[0],
            "mixed_permuted_metrics": mixed[1],
            "cas_run_csv": cas_run_csv_digest(Path(tmp)),
            "ga_coevolve_csv": ga_coevolve_csv_digest(Path(tmp)),
            "dynamics_lyapunov_csv": dynamics_lyapunov_csv_digest(Path(tmp)),
            "dynamics_sweep_csv": dynamics_sweep_csv_digest(Path(tmp)),
            "stochastic_iterate": stochastic[0],
            "stochastic_divergence_rate": stochastic[1],
            "stochastic_two_trajectory": stochastic[2],
            "life_run_rle": life_run[0],
            "life_run_frames": life_run[1],
            "life_run_population_csv": life_run[2],
            "life_hex_population_csv": life_hex_population_digest(Path(tmp)),
            "life_states3_rle": life_states3_digest(Path(tmp)),
            "life_classify_stdout": life_classify_digest(Path(tmp)),
            "complexity_profile_csv": complexity_profile_digest(Path(tmp)),
            "life_soup_rle": soup[0],
            "life_soup_population_csv": soup[1],
            "complexity_soup_profile_csv": soup[2],
        }
    print("GOLDEN = {")
    for name, value in current.items():
        print(f'    "{name}": "{value}",')
    print("}")


if __name__ == "__main__":
    main()
