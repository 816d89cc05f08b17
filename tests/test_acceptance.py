"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``)."""

import math
import random
import time

from complexkit.automaton import CONWAY_LIFE, classify_pattern, run, step
from complexkit.cas import (
    Agent,
    Population,
    Strategy,
    double_on_second_rule,
    respond,
    select_rule,
    snapshot,
)
from complexkit.cas import Environment
from complexkit.coevolve import episode_fitness
from complexkit.complexity import complexity_profile, info_bits
from complexkit.dynamics import (
    divergence_rate,
    divergence_rate_two_trajectory,
    identity_map,
    logistic_map,
)
from complexkit.evolution import EvolutionConfig, evolve
from complexkit.grid import Grid
from complexkit.patterns import decode_pattern, encode_pattern
from complexkit.scenario import build_environment, run_scenario

from oracles import dense_run

BLINKER = Grid([(0, 0), (1, 0), (2, 0)])
BLOCK = Grid([(0, 0), (0, 1), (1, 0), (1, 1)])
GLIDER = Grid([(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)])

CAS_SCENARIO = {
    "seed": 11,
    "stimulus": 1.0,
    "grid": {"width": 30, "height": 30},
    "agent_types": [
        {"name": "drone", "count": 50, "strategy": "fixed",
         "rule": {"kind": "linear", "gain": 1.0}},
        {"name": "learner", "count": 50, "strategy": "adaptive",
         "rules": [{"kind": "linear", "gain": 0.5}, {"kind": "linear", "gain": 2.0}],
         "weights": [1, 1]},
    ],
}


def _report(number, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{status}] {name} ({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_1_life_canon():
    t0 = time.time()
    blinker = classify_pattern(BLINKER, CONWAY_LIFE, horizon=16)
    block = classify_pattern(BLOCK, CONWAY_LIFE, horizon=16)
    glider = classify_pattern(GLIDER, CONWAY_LIFE, horizon=16)
    ok = (
        (blinker.kind, blinker.period) == ("oscillator", 2)
        and block.kind == "still-life"
        and (glider.kind, glider.period, glider.displacement) == ("spaceship", 4, (1, 1))
    )
    _report(1, "Life canon", ok, time.time() - t0, 1)


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    ok = True
    for trial in range(100):
        rng = random.Random(20_000 + trial)
        cells = {(x, y) for x in range(50) for y in range(50) if rng.random() < 0.35}
        expected = dense_run(cells, 100)
        g = Grid(cells)
        for gen in range(101):
            if set(g.cells) != expected[gen]:
                ok = False
                break
            if gen < 100:
                g = step(g, CONWAY_LIFE)
        if not ok:
            break
    _report(2, "oracle equivalence, 100 soups x 100 generations", ok, time.time() - t0, 30)


def test_criterion_3_codec_fidelity():
    t0 = time.time()
    ok = (
        encode_pattern(BLOCK) == "x = 2, y = 2, rule = B3/S23\n2o$2o!"
        and encode_pattern(BLINKER) == "x = 3, y = 1, rule = B3/S23\n3o!"
        and encode_pattern(GLIDER) == "x = 3, y = 3, rule = B3/S23\nbo$2bo$3o!"
        and decode_pattern("bob$2bo$3o!")[0] == GLIDER
    )
    rng = random.Random(30_001)
    for _ in range(500):
        cells = {
            (rng.randint(-20, 20), rng.randint(-20, 20)): rng.randint(1, 3)
            for _ in range(rng.randint(1, 60))
        }
        g = Grid(cells)
        if decode_pattern(encode_pattern(g, "rle"), "rle")[0] != g.canonicalize():
            ok = False
            break
        g2 = Grid(set(cells))  # plaintext is two-state
        if decode_pattern(encode_pattern(g2, "plaintext"), "plaintext")[0] != g2.canonicalize():
            ok = False
            break
    _report(3, "codec fidelity", ok, time.time() - t0, 5)


def test_criterion_4_complexity_profile():
    t0 = time.time()
    ok = all(info_bits(2**k) == float(k) for k in range(31))

    still = run(BLOCK, CONWAY_LIFE, 10)
    ok = ok and complexity_profile(still, [1, 2, 4]).bits == (0.0, 0.0, 0.0)

    blinker_history = run(BLINKER, CONWAY_LIFE, 10)
    ok = ok and complexity_profile(blinker_history, [1]).bits == (1.0,)

    rng = random.Random(40_400)
    soup = Grid([(x, y) for x in range(30) for y in range(30) if rng.random() < 0.35])
    profile = complexity_profile(run(soup, CONWAY_LIFE, 40), [1, 2, 4, 8])
    bits = profile.bits
    ok = ok and all(b2 <= b1 for b1, b2 in zip(bits, bits[1:]))
    _report(4, "complexity profile", ok, time.time() - t0, 5)


def test_criterion_5_chaos_diagnostics():
    t0 = time.time()
    lam_chaotic = divergence_rate(logistic_map(4.0), 0.3, 100_000, burn_in=1000)
    lam_stable = divergence_rate(logistic_map(2.5), 0.3, 100_000, burn_in=1000)
    lam_identity = divergence_rate(identity_map(), 0.5, 100_000, burn_in=0)
    cross = divergence_rate_two_trajectory(logistic_map(4.0), 0.3, 100_000, burn_in=1000)
    ok = (
        abs(lam_chaotic - 0.693) < 0.05
        and abs(lam_stable - (-0.693)) < 0.05
        and lam_identity == 0.0
        and abs(lam_chaotic - cross) < 0.1
    )
    _report(5, "chaos diagnostics", ok, time.time() - t0, 5)


def test_criterion_6_ga_convergence():
    t0 = time.time()
    onemax = lambda genome: float(sum(1 for s in genome if s == "1"))
    hits = 0
    monotone = True
    for seed in range(20):
        cfg = EvolutionConfig(
            genome_length=64,
            population_size=100,
            generations=200,
            mutation_rate=1 / 64,
            crossover_rate=0.9,
            tournament_size=3,
            elitism=2,
            seed=seed,
            target_fitness=64.0,
        )
        best, stats = evolve(cfg, onemax)
        hits += best.fitness == 64.0
        bests = [s.best for s in stats]
        monotone = monotone and all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    ok = hits >= 19 and monotone
    _report(6, f"GA convergence ({hits}/20 optima)", ok, time.time() - t0, 60)


def test_criterion_7_cas_determinism():
    t0 = time.time()
    reference = build_environment(CAS_SCENARIO)
    reference, _ = run_scenario(reference, 100)
    ref_snapshot = snapshot(reference)

    ok = True
    for _ in range(2):  # 3 runs total including the reference
        env, _ = run_scenario(build_environment(CAS_SCENARIO), 100)
        ok = ok and snapshot(env) == ref_snapshot

    shuffle_rng = random.Random(777)
    base = build_environment(CAS_SCENARIO)
    for _ in range(50):
        agents = base.agents()
        shuffle_rng.shuffle(agents)
        half = len(agents) // 2
        permuted = Environment(
            populations=(
                Population("a", tuple(agents[:half])),
                Population("b", tuple(agents[half:])),
            ),
            seed=base.seed,
            space=base.space,
            params=base.params,
            types=base.types,
        )
        permuted, _ = run_scenario(permuted, 100)
        ok = ok and snapshot(permuted) == ref_snapshot

    nacs = Agent(
        id=0,
        type_name="nacs",
        strategy=Strategy(rules=(double_on_second_rule(),)),
    )
    draw_rng = random.Random(5)
    ok = ok and all(select_rule(nacs, draw_rng.random()) == 0 for _ in range(100_000))
    _report(7, "CAS determinism and concurrency contract", ok, time.time() - t0, 30)


def test_criterion_8_coevolution_smoke():
    t0 = time.time()
    improved = 0
    for seed in range(10):
        cfg = EvolutionConfig(
            genome_length=16,
            population_size=12,
            generations=8,
            mutation_rate=0.05,
            crossover_rate=0.9,
            tournament_size=3,
            elitism=1,
            seed=seed,
        )
        _, stats = evolve(cfg, episode_fitness())
        improved += stats[-1].mean > stats[0].mean
    ok = improved >= 9
    _report(8, f"co-evolution smoke ({improved}/10 improved)", ok, time.time() - t0, 120)


def test_criterion_9_nonlinear_response():
    t0 = time.time()
    rng = random.Random(99)
    ok = True
    for i in range(100):
        stimulus = rng.uniform(-100.0, 100.0)
        agent = Agent(
            id=i,
            type_name="burst",
            strategy=Strategy(rules=(double_on_second_rule(),)),
        )
        first, agent = respond(agent, stimulus)
        second, agent = respond(agent, stimulus)
        ok = ok and first == 0.0 and second == 2.0 * stimulus
    _report(9, "non-linear response fixture", ok, time.time() - t0, 5)
