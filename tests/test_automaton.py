import contextlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexkit import automaton, grid
from complexkit.automaton import CONWAY_LIFE, RuleError, RuleSet, classify_pattern, run, step
from complexkit.grid import Grid, Topology

from oracles import HEX, MOORE, colour_run, dense_run, reference_classify

BLINKER = Grid([(0, -1), (0, 0), (0, 1)])
BLOCK = Grid([(0, 0), (0, 1), (1, 0), (1, 1)])
GLIDER = Grid([(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)])
# Lightweight spaceship heading toward -x at c/2.
LWSS = Grid([(0, 1), (0, 2), (0, 3), (1, 0), (1, 3), (2, 3), (3, 3), (4, 0), (4, 2)])


def random_soup(rng, size=20, density=0.35):
    return Grid([
        (x, y) for x in range(size) for y in range(size) if rng.random() < density
    ])


def test_rule_parse_roundtrip():
    rule = RuleSet.parse("B3/S23")
    assert rule.birth == {3} and rule.survival == {2, 3} and rule.states == 2
    assert str(rule) == "B3/S23"
    assert str(RuleSet.parse("B36/S23")) == "B36/S23"


def test_rule_rejects_birth_on_zero():
    with pytest.raises(RuleError):
        RuleSet(birth=frozenset({0, 3}), survival=frozenset({2}))


def test_rule_rejects_bad_states():
    with pytest.raises(RuleError):
        RuleSet(birth=frozenset({3}), survival=frozenset(), states=1)


def test_step_rejects_count_above_degree():
    hex_grid = Grid([(0, 0)], topology=Topology.HEX)
    rule = RuleSet(birth=frozenset({7}), survival=frozenset({2}))
    with pytest.raises(RuleError):
        step(hex_grid, rule)


def test_run_rejects_count_above_degree_for_zero_generations():
    hex_grid = Grid([(0, 0)], topology=Topology.HEX)
    with pytest.raises(RuleError):
        run(hex_grid, RuleSet(birth=frozenset({7}), survival=frozenset({2})), 0)


def test_blinker_flips():
    assert step(BLINKER) == Grid([(-1, 0), (0, 0), (1, 0)])


def test_block_is_fixed():
    assert step(BLOCK) == BLOCK


def test_empty_stays_empty():
    assert step(Grid()) == Grid()


def test_lone_cell_dies():
    assert step(Grid([(0, 0)])) == Grid()


def test_zero_survival_rule_keeps_isolated_cells():
    rule = RuleSet(birth=frozenset({3}), survival=frozenset({0}))
    assert step(Grid([(0, 0)]), rule) == Grid([(0, 0)])


def test_run_zero_generations():
    assert list(run(BLOCK, CONWAY_LIFE, 0)) == [BLOCK]


def test_run_refuses_a_generation_count_that_is_not_an_integer():
    # Refused when run is called, before generation 0 is yielded.
    with pytest.raises(ValueError, match=r"^generation count must be an integer, got 2\.5$"):
        run(BLOCK, CONWAY_LIFE, 2.5)


def test_classify_refuses_a_horizon_that_is_not_an_integer():
    with pytest.raises(ValueError, match=r"^horizon must be an integer, got 2\.5$"):
        classify_pattern(BLOCK, CONWAY_LIFE, 2.5)


def test_run_blinker_period_two():
    assert list(run(BLINKER, CONWAY_LIFE, 2))[-1] == BLINKER


def test_run_glider_four_generations():
    final = list(run(GLIDER, CONWAY_LIFE, 4))[-1]
    assert final == GLIDER.translate((1, 1))
    # brute-force oracle for the same orbit
    assert set(final.cells) == dense_run(set(GLIDER.cells), 4, pad=8)[-1]


def test_glider_runs_300_generations():
    history = list(run(GLIDER, CONWAY_LIFE, 300))
    for k in range(0, 301, 4):
        assert history[k] == GLIDER.translate((k // 4, k // 4))


def test_spaceships_run_in_negative_directions():
    back_glider = Grid([(-x, -y) for x, y in GLIDER.cells])
    for ship, (dx, dy) in ((back_glider, (-1, -1)), (LWSS, (-2, 0))):
        history = list(run(ship, CONWAY_LIFE, 200))
        for k in range(0, 201, 4):
            assert history[k] == ship.translate((dx * k // 4, dy * k // 4))


def test_classify_canon():
    assert classify_pattern(BLOCK).kind == "still-life"
    osc = classify_pattern(BLINKER)
    assert (osc.kind, osc.period) == ("oscillator", 2)
    ship = classify_pattern(GLIDER)
    assert (ship.kind, ship.period, ship.displacement) == ("spaceship", 4, (1, 1))


def test_classify_unresolved():
    # r-pentomino stays unresolved over a short horizon
    r_pentomino = Grid([(1, 0), (2, 0), (0, 1), (1, 1), (1, 2)])
    assert classify_pattern(r_pentomino, horizon=20).kind == "unresolved"


def test_classify_empty_is_still_life():
    assert classify_pattern(Grid()).kind == "still-life"


@settings(max_examples=200, deadline=None)
@given(topology=st.sampled_from(list(Topology)), states=st.sampled_from([2, 3]),
       horizon=st.integers(1, 40), data=st.data())
def test_classify_matches_the_reference(topology, states, horizon, data):
    if topology is Topology.SQUARE and data.draw(st.booleans(), label="life pattern"):
        # Random rules and cells seldom oscillate or move; these do.
        rule = RuleSet.parse(data.draw(st.sampled_from(["B3/S23", "B36/S23"])), states)
        shape = data.draw(st.sampled_from([BLINKER, BLOCK, GLIDER, LWSS]), label="shape")
        g = Grid(dict.fromkeys(shape.cells, states - 1))
    else:
        degree = topology.degree
        rule = RuleSet(
            data.draw(st.frozensets(st.integers(1, degree)), label="birth"),
            data.draw(st.frozensets(st.integers(0, degree)), label="survival"),
            states=states,
        )
        cells = data.draw(
            st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            st.integers(1, states - 1), max_size=12),
            label="cells",
        )
        g = Grid(cells, topology=topology)
    assert classify_pattern(g, rule, horizon) == reference_classify(g, rule, horizon)


def test_translation_equivariance_randomized():
    rng = random.Random(42)
    for _ in range(200):
        g = random_soup(rng, size=12)
        d = (rng.randint(-30, 30), rng.randint(-30, 30))
        assert step(g.translate(d)) == step(g).translate(d)


def test_step_is_deterministic():
    rng = random.Random(5)
    g = random_soup(rng)
    assert step(g) == step(g)


def test_sparse_matches_dense_oracle_small():
    rng = random.Random(17)
    for _ in range(10):
        g = random_soup(rng, size=15)
        history = run(g, CONWAY_LIFE, 20)
        expected = dense_run(set(g.cells), 20, pad=24)
        for got, want in zip(history, expected):
            assert set(got.cells) == want


@pytest.mark.parametrize(
    "topology, rule_text",
    [
        (Topology.SQUARE, "B36/S23"),
        (Topology.SQUARE, "B3/S012345678"),
        (Topology.SQUARE, "B1/S0"),
        (Topology.SQUARE, "B2/S8"),
        (Topology.HEX, "B2/S34"),
        (Topology.HEX, "B24/S0356"),
        (Topology.HEX, "B1/S0"),
    ],
)
def test_engine_matches_dense_oracle_for_rule(topology, rule_text):
    rule = RuleSet.parse(rule_text)
    neighborhood = MOORE if topology is Topology.SQUARE else HEX
    rng = random.Random(rule_text)
    for _ in range(4):
        g = Grid(random_soup(rng, size=12).cells, topology=topology)
        expected = dense_run(
            set(g.cells), 16, pad=20, birth=rule.birth, survival=rule.survival,
            neighborhood=neighborhood,
        )
        assert [set(got.cells) for got in run(g, rule, 16)] == expected
        assert set(step(g, rule).cells) == expected[1]


@settings(max_examples=60, deadline=None)
@given(topology=st.sampled_from(list(Topology)), data=st.data())
def test_two_state_engine_matches_multistate_engine(topology, data):
    degree = topology.degree
    birth = data.draw(st.frozensets(st.integers(1, degree)), label="birth")
    survival = data.draw(st.frozensets(st.integers(0, degree)), label="survival")
    cells = data.draw(
        st.sets(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), max_size=80), label="cells"
    )
    g = Grid(cells, topology=topology)
    rule2 = RuleSet(birth, survival)
    rule3 = RuleSet(birth, survival, states=3)
    assert list(run(g, rule2, 10)) == list(run(g, rule3, 10))
    assert step(g, rule2) == step(g, rule3)


def test_two_state_rule_keeps_survivor_colors():
    g = Grid({(0, 0): 2, (1, 0): 2, (2, 0): 2})
    vertical = Grid({(1, -1): 1, (1, 0): 2, (1, 1): 1})
    assert step(g, CONWAY_LIFE) == vertical
    assert list(run(g, CONWAY_LIFE, 2))[1:] == [vertical, Grid({(0, 0): 1, (1, 0): 2, (2, 0): 1})]


def test_two_state_path_equals_multistate_path():
    rng = random.Random(23)
    rule2 = CONWAY_LIFE
    rule3 = RuleSet(birth=frozenset({3}), survival=frozenset({2, 3}), states=3)
    for _ in range(20):
        g = random_soup(rng, size=12)
        assert step(g, rule2) == step(g, rule3)


def test_newborn_takes_majority_color():
    rule = RuleSet(birth=frozenset({3}), survival=frozenset({2, 3}), states=3)
    g = Grid({(0, 0): 2, (0, 1): 2, (0, 2): 1})
    # cells at (-1,1) and (1,1) are born with three live neighbors {2,2,1}
    nxt = step(g, rule)
    assert nxt.state((-1, 1)) == 2
    assert nxt.state((1, 1)) == 2


def test_newborn_color_tie_breaks_low():
    # two live neighbors of different colors; birth on two neighbors
    rule = RuleSet(birth=frozenset({2}), survival=frozenset(), states=3)
    g = Grid({(0, 0): 2, (0, 2): 1})
    nxt = step(g, rule)
    assert nxt.state((0, 1)) == 1
    assert nxt.state((-1, 1)) == 1
    assert nxt.state((1, 1)) == 1


def test_hex_rule_runs():
    rule = RuleSet(birth=frozenset({2}), survival=frozenset({3, 4}))
    g = Grid([(0, 0), (1, 0), (0, 1)], topology=Topology.HEX)
    nxt = step(g, rule)
    assert nxt.topology is Topology.HEX
    # each cell of the triangle has 2 live neighbors -> dies; shared
    # neighbors with exactly 2 live neighbors are born
    assert all(s == 1 for s in nxt.cells.values())


def coloured_cases(data, topology, max_size=60):
    """A coloured grid on ``topology`` and a rule of 2 to 5 states whose
    birth and survival sets may hold any count up to the degree (S0, B1
    and full-degree counts included)."""
    degree = topology.degree
    birth = data.draw(st.frozensets(st.integers(1, degree)), label="birth")
    survival = data.draw(st.frozensets(st.integers(0, degree)), label="survival")
    states = data.draw(st.integers(2, 5), label="states")
    cells = data.draw(
        st.dictionaries(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), st.integers(1, 4),
                        max_size=max_size),
        label="cells",
    )
    return Grid(cells, topology=topology), RuleSet(birth, survival, states=states)


@settings(max_examples=150, deadline=None)
@given(topology=st.sampled_from(list(Topology)), generations=st.integers(0, 12), data=st.data())
def test_run_matches_colour_reference(topology, generations, data):
    g, rule = coloured_cases(data, topology)
    assert list(run(g, rule, generations)) == colour_run(g, rule, generations)


@contextlib.contextmanager
def engines(sparse=None):
    """Count the generations each engine steps, optionally with ``_SPARSE``
    patched; yields {"board": steps, "set": [population of each set step]}."""
    ran = {"board": 0, "set": []}
    set_step, board_step = automaton._set_step, automaton._board_step

    def counted_set_step(live, rule, offsets):
        ran["set"].append(len(live))
        return set_step(live, rule, offsets)

    def counted_board_step(bits, stride, offsets, rule):
        ran["board"] += 1
        return board_step(bits, stride, offsets, rule)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(automaton, "_set_step", counted_set_step)
        mp.setattr(automaton, "_board_step", counted_board_step)
        if sparse is not None:
            mp.setattr(automaton, "_SPARSE", sparse)
        yield ran


@pytest.mark.parametrize("sparse", [0, 10**9], ids=["set-only", "board-only"])
@settings(max_examples=60, deadline=None)
@given(topology=st.sampled_from(list(Topology)), data=st.data())
def test_each_engine_alone_matches_the_oracles(sparse, topology, data):
    g, rule = coloured_cases(data, topology, max_size=40)
    two_state = RuleSet(rule.birth, rule.survival)
    neighborhood = MOORE if topology is Topology.SQUARE else HEX
    expected = dense_run(set(g.cells), 12, birth=rule.birth, survival=rule.survival,
                         neighborhood=neighborhood)
    with engines(sparse) as ran:
        assert [set(h.cells) for h in run(Grid(set(g.cells), topology), two_state, 12)] == expected
        assert list(run(g, rule, 12)) == colour_run(g, rule, 12)
    if sparse:
        assert not any(ran["set"])  # only empty generations skip the board
    else:
        assert ran["board"] == 0


def test_gliders_flying_apart_move_from_the_board_to_the_set():
    away = Grid([(-10 - x, -10 - y) for x, y in GLIDER.cells])
    g = Grid(set(GLIDER.cells) | set(away.cells))
    expected = dense_run(set(g.cells), 600, pad=160)
    with engines() as ran:
        assert [set(h.cells) for h in run(g, CONWAY_LIFE, 600)] == expected
    assert ran["board"] and ran["set"]
    assert ran["board"] + len(ran["set"]) == 600


def diehard_and_blinker():
    """A diehard far from a blinker: too spread to pack until the diehard
    dies out at generation 130, leaving fewer cells than any earlier
    generation in a box that fits the board."""
    diehard = Grid([(6, 0), (0, 1), (1, 1), (1, 2), (5, 2), (6, 2), (7, 2)])
    return Grid(set(BLINKER.cells) | set(diehard.translate((3000, 3000)).cells))


def test_a_run_whose_box_shrinks_returns_to_the_board_the_next_generation():
    history = list(run(diehard_and_blinker(), CONWAY_LIFE, 300))
    assert [h.population for h in history[130:]] == [3] * 171
    assert all(h._packed is None for h in history[1:130])
    assert all(h._packed is not None for h in history[131:])


def assert_steps_on_the_board_whenever_it_packs(history):
    """A two-state generation held as a dict is followed by a board
    generation exactly when it packs: the choice depends on nothing but
    that generation."""
    for t, (before, after) in enumerate(zip(history, history[1:])):
        if before._packed is None:
            packs = grid._pack(before.cells, automaton._MARGIN, automaton._SPARSE) is not None
            assert (after._packed is not None) == packs, t


def test_the_diehard_run_steps_on_the_board_whenever_it_packs():
    assert_steps_on_the_board_whenever_it_packs(list(run(diehard_and_blinker(), CONWAY_LIFE, 300)))


@settings(max_examples=150, deadline=None)
@given(
    topology=st.sampled_from(list(Topology)),
    sparse=st.sampled_from([1, 4, 16, 64]),
    generations=st.integers(0, 120),
    data=st.data(),
)
def test_a_two_state_run_steps_on_the_board_whenever_it_packs(topology, sparse, generations, data):
    g, rule = coloured_cases(data, topology)
    history = []
    with engines(sparse):
        for h in run(Grid(set(g.cells), topology), RuleSet(rule.birth, rule.survival), generations):
            history.append(h)
            if h.population > 1000:  # a rule that fills the plane: stop before it is slow
                break
        assert_steps_on_the_board_whenever_it_packs(history)


def test_a_run_read_for_its_population_decodes_only_to_repack(monkeypatch):
    counts = {"decode": 0, "pack": 0}
    decode, pack = grid._decode, automaton._pack

    def counted_decode(*board):
        counts["decode"] += 1
        return decode(*board)

    def counted_pack(cells, margin, sparse):
        counts["pack"] += 1
        return pack(cells, margin, sparse)

    monkeypatch.setattr(grid, "_decode", counted_decode)
    monkeypatch.setattr(automaton, "_pack", counted_pack)
    soup = random_soup(random.Random(5), size=100)
    history = list(run(soup, CONWAY_LIFE, 90))
    populations = [g.population for g in history]
    assert history[-1].cells  # like ``life run --out``, read the last generation's cells
    repacks = counts["pack"] - 1  # the first pack reads generation 0, a dict grid
    assert counts["decode"] <= repacks + 1 < 10
    assert populations == [len(cells) for cells in dense_run(set(soup.cells), 90)]


def test_far_apart_blinkers_run_in_bounded_memory():
    g = Grid(set(BLINKER.cells) | set(BLINKER.translate((3000, 3000)).cells))
    tracemalloc.start()
    try:
        history = list(run(g, CONWAY_LIFE, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert history[10] == g
    assert peak < 2**20
