"""Independent brute-force oracles used to check the engines.

The Life oracle here is a naive dense double-buffer implementation on a
padded bounded region, written directly from the birth/survival rule
text and sharing no code with the engines. The agent oracle is the
original immutable tick, built from the public per-agent functions
``select_rule``, ``respond`` and ``reinforce``, so that the differential
pins them and the engine to each other: it rebuilds every agent each
tick and draws from a fresh SplitMix64 generator per agent, written here
from Steele, Lea & Flood (2014). The dynamics oracle is the
materialising Lyapunov estimator the streamed one replaced: it builds
the whole orbit with a per-step branch choice, then reads it back. The
colour reference is the coloured sparse Life step the engine used before
it coloured cells after stepping: it reads every neighbour's colour while
it counts, and gives each newborn the majority colour of its neighbours.
The GA reference is the generational loop that scored each new
population in a separate pass and ranked it twice, built only from the
public pieces of ``complexkit.evolution``. The profile reference is the
complexity profile as it was measured on cell dicts: each generation
coarse-grained by the public ``coarse_grain``, and each observed state
kept as a ``Grid`` in a per-scale set. The classify reference is
``classify_pattern`` as it was with a separate still-life check at the
first generation and a guard against a zero shift. The weighted draw
reference is ``weighted_index`` as it was with an ``enumerate`` scan,
and the episode reference is ``episode_fitness`` as it was before it
prepared its episodes: it builds the records of every genome's episode
and averages ``run_scenario``'s ``mean_response`` column. The coordinate
decoders are the RLE and plaintext decoders as they were before they
built packed rows: they write each live cell into a coordinate dict.
"""

import logging
import math
import random
import sys
from collections import Counter

import numpy as np

from complexkit._shared import as_integer, as_real
from complexkit.cas import (
    Agent,
    AgentType,
    Environment,
    Population,
    Strategy,
    reinforce,
    respond,
    run_scenario,
    select_rule,
)
from complexkit.coevolve import weights_from_genome
from complexkit.dynamics import (
    DERIVATIVE_FLOOR,
    DivergenceError,
    IterativeMap,
    Trajectory,
    weighted_index,
)
from complexkit.automaton import CONWAY_LIFE, PatternClass, RuleSet, run
from complexkit.complexity import ComplexityProfile, StateCensus, coarse_grain
from complexkit.evolution import (
    EvaluationError,
    GenerationStats,
    Individual,
    crossover,
    mutate,
    random_genome,
    select,
)
from complexkit.grid import Coordinate, Grid
from complexkit.patterns import _HEADER_RE, PatternFormatError

MOORE = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0))
# Axial hexagonal neighborhood of (q, r): (q +- 1, r), (q, r +- 1),
# (q + 1, r - 1) and (q - 1, r + 1).
HEX = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def dense_step(
    board: np.ndarray, birth=frozenset({3}), survival=frozenset({2, 3}), neighborhood=MOORE
) -> np.ndarray:
    """One generation of a board indexed [x, y]; cells outside it are dead."""
    padded = np.zeros((board.shape[0] + 2, board.shape[1] + 2), dtype=np.int16)
    padded[1:-1, 1:-1] = board
    counts = np.zeros(board.shape, dtype=np.int16)
    for dx, dy in neighborhood:
        counts += padded[1 + dx : 1 + dx + board.shape[0], 1 + dy : 1 + dy + board.shape[1]]
    nxt = np.zeros_like(board)
    for count in birth:
        nxt |= (board == 0) & (counts == count)
    for count in survival:
        nxt |= (board == 1) & (counts == count)
    return nxt.astype(board.dtype)


def dense_run(
    cells, generations, pad=16, birth=frozenset({3}), survival=frozenset({2, 3}), neighborhood=MOORE
):
    """Run a cell set on a zero-padded board; returns one cell set per
    generation. The board's dead border makes it equivalent to the
    unbounded lattice as long as nothing reaches the outermost ring; if
    that happens the run restarts with doubled padding (growth is at most
    one cell per generation, so ``generations + 2`` always suffices)."""
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    if not xs:
        return [set() for _ in range(generations + 1)]
    min_x, min_y = min(xs), min(ys)
    while True:
        width = max(xs) - min_x + 2 * pad + 1
        height = max(ys) - min_y + 2 * pad + 1
        board = np.zeros((width, height), dtype=np.uint8)
        for x, y in cells:
            board[x - min_x + pad, y - min_y + pad] = 1
        out = []
        touched = False
        for _ in range(generations + 1):
            live = np.argwhere(board == 1).tolist()
            out.append({(x + min_x - pad, y + min_y - pad) for x, y in live})
            if board[0, :].any() or board[-1, :].any() or board[:, 0].any() or board[:, -1].any():
                touched = True
                break
            board = dense_step(board, birth, survival, neighborhood)
        if not touched:
            return out
        pad = min(pad * 2, generations + 2)


def _newborn_state(coord: Coordinate, cells, offsets, states: int) -> int:
    if states == 2:
        return 1
    # Majority color among live neighbors; ties go to the smallest color.
    x, y = coord
    tally = Counter()
    for dx, dy in offsets:
        s = cells.get((x + dx, y + dy), 0)
        if s:
            tally[s] += 1
    best = max(tally.values())
    return min(c for c, n in tally.items() if n == best)


def _dict_step(grid: Grid, rule: RuleSet) -> Grid:
    """One generation of the sparse engine, for rules and grids with colors.

    Only live cells and their neighbors are candidates; with 0 excluded
    from the birth set (enforced by RuleSet) no other cell can change.
    """
    cells = grid.cells
    offsets = grid.topology.offsets
    counts = Counter(
        (x + dx, y + dy) for (x, y) in cells for dx, dy in offsets
    )
    birth = rule.birth
    survival = rule.survival
    nxt: dict[Coordinate, int] = {}
    for coord, count in counts.items():
        state = cells.get(coord, 0)
        if state:
            if count in survival:
                nxt[coord] = state
        elif count in birth:
            nxt[coord] = _newborn_state(coord, cells, offsets, rule.states)
    if 0 in survival:
        # Isolated live cells never appear in the neighbor-count map.
        for coord, state in cells.items():
            if coord not in counts:
                nxt[coord] = state
    return Grid._trusted(nxt, grid.topology)


def colour_run(grid: Grid, rule: RuleSet, generations: int) -> list[Grid]:
    """Generations 0 through ``generations`` of the colour reference."""
    out = [grid]
    for _ in range(generations):
        grid = _dict_step(grid, rule)
        out.append(grid)
    return out


class SplitMix64:
    """Sequential SplitMix64: each output advances the state by the golden
    gamma and returns the state through Stafford's Mix13 finaliser."""

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, state: int):
        self.state = state % 2**64

    @staticmethod
    def mix13(z: int) -> int:
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
        return z ^ (z >> 31)

    def next(self) -> int:
        self.state = (self.state + self.GAMMA) % 2**64
        return self.mix13(self.state)


def agent_stream(seed: int, time: int, agent_id: int) -> SplitMix64:
    """The generator of one agent-tick: its state is the seed's Mix13 plus
    the index ``time * 2**32 + agent_id`` times 0xD1B54A32D192ED03, mod
    2**64. Output 1 draws the rule, output 2 the move."""
    index = time * 2**32 + agent_id
    return SplitMix64(SplitMix64.mix13(seed % 2**64) + index * 0xD1B54A32D192ED03)


def agent_tick(env: Environment) -> Environment:
    """One synchronous two-phase tick: every agent draws its rule and move
    from a stream keyed on (seed, time, id) and the time-t state, then
    moves commit in ascending id order, the lowest id winning a contested
    cell (losers stay put)."""
    stimulus = float(env.params.get("stimulus", 1.0))
    intents = {}
    for agent in env.agents():
        stream = agent_stream(env.seed, env.time, agent.id)
        rule_draw, move_draw = stream.next(), stream.next()
        idx = select_rule(agent, (rule_draw >> 11) / 2**53)
        response, updated = respond(agent, stimulus, idx)
        updated = reinforce(updated, idx, response)
        target = None
        if env.space is not None and "position" in updated.attributes:
            x, y = updated.attributes["position"]
            dx, dy = env.space.topology.offsets[move_draw * env.space.topology.degree // 2**64]
            target = (x + dx, y + dy)
        intents[agent.id] = (updated, target)

    claimed = set()
    committed = {}
    for aid in sorted(intents):
        updated, target = intents[aid]
        if target is not None:
            if target in claimed:
                target = tuple(updated.attributes["position"])
            claimed.add(target)
            attrs = dict(updated.attributes)
            attrs["position"] = target
            updated = updated._replace(attributes=attrs)
        committed[aid] = updated

    populations = tuple(
        Population(
            name=pop.name,
            agents=tuple(sorted((committed[a.id] for a in pop.agents), key=lambda a: a.id)),
        )
        for pop in env.populations
    )
    space = env.space
    if space is not None:
        occupied = [
            a.attributes["position"] for a in committed.values() if "position" in a.attributes
        ]
        space = Grid(occupied, topology=space.topology)
    return env._replace(populations=populations, space=space, time=env.time + 1)


def agent_run(env: Environment, ticks: int, tick=agent_tick):
    """``ticks`` chained ticks (the oracle's by default) and one metrics row
    per tick, the mean response summed in the ticked env's ``agents()``
    order."""
    metrics = []
    for _ in range(ticks):
        env = tick(env)
        responses = [a.memory[-1][1] for a in env.agents() if a.memory]
        mean = sum(responses) / len(responses) if responses else 0.0
        metrics.append(
            {"tick": env.time, "agents": len(env.agents()), "mean_response": mean, "mean_reward": mean}
        )
    return env, metrics


dynamics_log = logging.getLogger("oracles.dynamics")


def _choose_branch(m: IterativeMap, rng: random.Random) -> int:
    if m.deterministic:
        return 0
    return weighted_index(m.probabilities, 1.0, rng.random())


def materialised_iterate(
    m: IterativeMap, x0: float, n: int, rng: random.Random | None = None
) -> Trajectory:
    """Iterate the map ``n`` steps from ``x0``; deterministic maps ignore rng."""
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be a finite number, got {x0!r}")
    if not m.deterministic and rng is None:
        raise ValueError("stochastic maps need a random stream")
    states = [x0]
    branch_log = []
    x = x0
    for t in range(n):
        i = _choose_branch(m, rng) if rng is not None else 0
        x = m.branches[i].fn(x)
        if not math.isfinite(x):
            raise DivergenceError(t + 1, x)
        states.append(x)
        branch_log.append(i)
    return Trajectory(states=tuple(states), branch_log=tuple(branch_log))


def materialised_divergence_rate(
    m: IterativeMap,
    x0: float,
    n: int,
    burn_in: int = 1000,
    rng: random.Random | None = None,
) -> float:
    """Per-step divergence exponent from derivatives along the trajectory.

    Positive values signal exponential divergence of nearby trajectories,
    negative values contraction. Points with derivative exactly zero are
    floored at ln(DERIVATIVE_FLOOR) rather than aborting the run; one
    warning after the loop gives their count.
    """
    if n < 1:
        raise ValueError(f"step count must be >= 1, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn-in must be >= 0, got {burn_in}")
    traj = materialised_iterate(m, x0, burn_in + n, rng)
    total = 0.0
    floors = 0
    for t in range(burn_in, burn_in + n):
        i = traj.branch_log[t]
        d = abs(m.branches[i].deriv(traj.states[t]))
        if d == 0.0:
            floors += 1
            d = DERIVATIVE_FLOOR
        total += math.log(d)
    if floors:
        dynamics_log.warning(
            "zero derivative at %d of %d steps; floored at %g", floors, n, DERIVATIVE_FLOOR
        )
    return total / n


def reference_evolve(cfg, fitness):
    """The generational loop as it was before each genome was scored where
    it is made: evaluate the whole population, record its stats, then rank
    it again for the elites of the next generation."""
    rng = random.Random(cfg.seed)
    population = [
        Individual(random_genome(cfg.genome_length, cfg.alphabet, rng))
        for _ in range(cfg.population_size)
    ]

    memo = {}

    def evaluate(pop):
        for ind in pop:
            if ind.genome not in memo:
                value = float(fitness(ind.genome))
                if not math.isfinite(value):
                    raise EvaluationError(ind.genome, value)
                memo[ind.genome] = value
            ind.fitness = memo[ind.genome]

    stats = []
    overall_best = None

    def record(generation):
        nonlocal overall_best
        values = [ind.fitness for ind in population]
        best_i = min(range(len(values)), key=lambda i: (-values[i], i))
        stats.append(
            GenerationStats(generation=generation, best=values[best_i], mean=sum(values) / len(values))
        )
        if overall_best is None or values[best_i] > overall_best.fitness:
            best = population[best_i]
            overall_best = Individual(best.genome, best.fitness)

    evaluate(population)
    record(0)
    for generation in range(1, cfg.generations + 1):
        if cfg.target_fitness is not None and overall_best.fitness >= cfg.target_fitness:
            break
        ranked = sorted(
            range(len(population)), key=lambda i: (-population[i].fitness, i)
        )
        next_pop = [
            Individual(population[i].genome, population[i].fitness)
            for i in ranked[: cfg.elitism]
        ]
        while len(next_pop) < cfg.population_size:
            pa, pb = select(population, 2, cfg.tournament_size, rng)
            if rng.random() < cfg.crossover_rate and cfg.genome_length >= 2:
                ca, cb = crossover(pa.genome, pb.genome, rng=rng)
            else:
                ca, cb = pa.genome, pb.genome
            for child in (ca, cb):
                if len(next_pop) >= cfg.population_size:
                    break
                next_pop.append(
                    Individual(mutate(child, cfg.mutation_rate, rng, cfg.alphabet))
                )
        population = next_pop
        evaluate(population)
        record(generation)
    return overall_best, stats


def reference_profile(history, scales):
    """The complexity profile as ``complexity_profile`` measured it on cell
    dicts: every generation coarse-grained with ``coarse_grain``, each scale
    from the previous one, and each state kept as a ``Grid``."""
    if not scales:
        raise ValueError("need at least one scale")
    prev = None
    for s in scales:
        if s < 1:
            raise ValueError(f"scale must be >= 1, got {s}")
        if prev is not None and (s <= prev or s % prev != 0):
            raise ValueError(
                f"scales must form an ascending divisibility chain, got {prev} then {s}"
            )
        prev = s

    seen = [set() for _ in scales]
    sample_size = 0
    for g in history:
        sample_size += 1
        coarse, finer = g, 1
        for s, states in zip(scales, seen):
            coarse, finer = coarse_grain(coarse, s // finer), s
            states.add(coarse)
    if not sample_size:
        raise ValueError("history must be non-empty")
    return ComplexityProfile(entries=tuple(
        StateCensus(omega=len(states), sample_size=sample_size, scale=s)
        for s, states in zip(scales, seen)
    ))


def reference_classify(grid: Grid, rule: RuleSet = CONWAY_LIFE, horizon: int = 64) -> PatternClass:
    """Classify a pattern by stepping up to ``horizon`` generations.

    Matches are modulo translation only. A pattern that returns to itself
    after one step is a still life, never a period-1 oscillator.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    start_canon = grid.canonicalize()
    start_box = grid.bounding_box()
    generations = run(grid, rule, horizon)
    next(generations)  # generation 0 is the pattern itself
    for k, current in enumerate(generations, start=1):
        if k == 1 and current == grid:
            return PatternClass(kind="still-life")
        if current.canonicalize() == start_canon:
            if current == grid:
                return PatternClass(kind="oscillator", period=k)
            # Both boxes exist: an empty grid is a still life at k == 1.
            cur_box = current.bounding_box()
            d = (cur_box[0][0] - start_box[0][0], cur_box[0][1] - start_box[0][1])
            if d != (0, 0):
                return PatternClass(kind="spaceship", period=k, displacement=d)
    return PatternClass(kind="unresolved")


def enumerate_weighted_index(weights, total, u):
    """``weighted_index`` with its ``enumerate`` scan, verbatim."""
    u *= total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def records_episode_fitness(rules, n_agents=5, ticks=20, episode_seed=7, stimulus=1.0):
    """``episode_fitness`` as it was before it prepared its episodes: the
    same checks when it is built, then per genome a ``Strategy``, its
    agents and an ``Environment``, and the mean of ``run_scenario``'s
    ``mean_response`` column."""
    as_integer("agent count", n_agents, 0)
    as_integer("tick count", ticks, 0)
    as_integer("episode seed", episode_seed)
    if not abs(as_real("stimulus", stimulus)) <= sys.float_info.max:
        raise ValueError(f"stimulus must be a finite number, got {stimulus!r}")
    rules = tuple(rules)

    def fitness(genome):
        weights = weights_from_genome(genome, len(rules))
        strategy = Strategy(rules=rules, weights=weights)
        agents = tuple(
            Agent(id=i, type_name="evolved", strategy=strategy) for i in range(n_agents)
        )
        env = Environment(
            populations=(Population(name="evolved", agents=agents),),
            seed=episode_seed,
            params={"stimulus": stimulus},
            types=(AgentType(name="evolved"),),
        )
        means = [row["mean_response"] for row in run_scenario(env, ticks)[1]]
        if not means:
            return 0.0
        return sum(means) / len(means)

    return fitness


def coordinate_decode_rle(text: str) -> tuple[Grid, RuleSet | None]:
    """``patterns._decode_rle`` as it was, writing every cell into a dict."""
    lines = text.split("\n")
    rule: RuleSet | None = None
    body_start = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _HEADER_RE.match(stripped)
        if m:
            if m.group(3):
                try:
                    rule = RuleSet.parse(m.group(3))
                except ValueError as exc:
                    raise PatternFormatError(str(exc), i + 1, 1) from None
            body_start = i + 1
        else:
            body_start = i  # headerless body
        break
    else:
        raise PatternFormatError("missing '!' terminator", len(lines), 1)

    cells: dict[Coordinate, int] = {}
    x = y = 0
    count = 0
    have_count = False
    for li in range(body_start, len(lines)):
        for ci, ch in enumerate(lines[li]):
            col = ci + 1
            if ch.isspace():
                if have_count:
                    raise PatternFormatError("run count split by whitespace", li + 1, col)
                continue
            if ch.isdigit():
                count = count * 10 + int(ch)
                have_count = True
                continue
            n = count if have_count else 1
            if have_count and count == 0:
                raise PatternFormatError("run count must be positive", li + 1, col)
            count = 0
            have_count = False
            if ch == "b":
                x += n
            elif ch == "o" or "A" <= ch <= "X":
                state = 1 if ch == "o" else ord(ch) - ord("A") + 1
                for _ in range(n):
                    cells[(x, y)] = state
                    x += 1
            elif ch == "$":
                y += n
                x = 0
            elif ch == "!":
                return Grid(cells), rule
            else:
                raise PatternFormatError(f"unknown symbol {ch!r}", li + 1, col)
    raise PatternFormatError("missing '!' terminator", len(lines), 1)


def coordinate_decode_plaintext(text: str) -> tuple[Grid, None]:
    """``patterns._decode_plaintext`` as it was, writing every cell into a
    dict."""
    cells: dict[Coordinate, int] = {}
    y = 0
    for li, line in enumerate(text.split("\n")):
        if line.startswith("!"):
            continue
        if line.strip() == "" and y == 0:
            continue
        for ci, ch in enumerate(line.rstrip("\r")):
            if ch == ".":
                continue
            if ch == "O":
                cells[(ci, y)] = 1
            else:
                raise PatternFormatError(f"unknown symbol {ch!r}", li + 1, ci + 1)
        y += 1
    return Grid(cells), None
