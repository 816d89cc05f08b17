import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexkit import automaton, grid
from complexkit.automaton import CONWAY_LIFE, RuleSet, run
from complexkit.complexity import (
    coarse_grain,
    complexity_profile,
    info_bits,
    theoretical_bits,
)
from complexkit.grid import Grid, Topology

from oracles import reference_profile

BLOCK = Grid([(0, 0), (0, 1), (1, 0), (1, 1)])
BLINKER = Grid([(0, 0), (1, 0), (2, 0)])


def test_info_bits_examples():
    assert info_bits(1) == 0.0
    assert info_bits(8) == 3.0
    assert info_bits(2**10) == 10.0


def test_info_bits_exact_for_powers_of_two():
    for k in range(31):
        assert info_bits(2**k) == float(k)


def test_info_bits_rejects_zero():
    with pytest.raises(ValueError):
        info_bits(0)


def test_info_bits_log_additivity():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randint(1, 2**20)
        b = rng.randint(1, 2**20)
        assert abs(info_bits(a * b) - (info_bits(a) + info_bits(b))) < 1e-12


def test_theoretical_bits():
    assert theoretical_bits(100, 2) == 100.0
    assert theoretical_bits(0) == 0.0


def test_coarse_grain_full_block():
    assert coarse_grain(BLOCK, 2) == Grid([(0, 0)])


def test_coarse_grain_empty():
    assert coarse_grain(Grid(), 5) == Grid()


def test_coarse_grain_identity_scale():
    assert coarse_grain(BLINKER, 1) == BLINKER


def test_coarse_grain_any_vs_majority():
    g = Grid([(0, 0)])  # one live cell in a 2x2 block
    assert coarse_grain(g, 2, rule="any") == Grid([(0, 0)])
    assert coarse_grain(g, 2, rule="majority") == Grid()
    # 3 of 4 live is a majority
    g3 = Grid([(0, 0), (1, 0), (0, 1)])
    assert coarse_grain(g3, 2, rule="majority") == Grid([(0, 0)])
    # exactly half is a tie -> dead
    g2 = Grid([(0, 0), (1, 0)])
    assert coarse_grain(g2, 2, rule="majority") == Grid()


def test_coarse_grain_negative_coords_anchor_at_origin():
    assert coarse_grain(Grid([(-1, -1)]), 2) == Grid([(-1, -1)])


def test_coarse_grain_rejects_hex():
    with pytest.raises(ValueError):
        coarse_grain(Grid([(0, 0)], topology=Topology.HEX), 2)


def test_coarse_grain_composes_for_nested_scales():
    rng = random.Random(21)
    for _ in range(50):
        g = Grid([(rng.randint(0, 40), rng.randint(0, 40)) for _ in range(30)])
        assert coarse_grain(coarse_grain(g, 2), 3) == coarse_grain(g, 6)
        assert coarse_grain(coarse_grain(g, 4), 2) == coarse_grain(g, 8)


def test_profile_still_life_is_flat_zero():
    history = run(BLOCK, CONWAY_LIFE, 10)
    profile = complexity_profile(history, [1, 2, 4])
    assert profile.bits == (0.0, 0.0, 0.0)
    assert all(census.omega == 1 for census in profile)


def test_profile_blinker_one_bit_at_scale_one():
    history = run(BLINKER, CONWAY_LIFE, 10)
    profile = complexity_profile(history, [1])
    assert profile.entries[0].omega == 2
    assert profile.bits == (1.0,)


def test_profile_monotone_on_random_soup():
    rng = random.Random(77)
    soup = Grid([(x, y) for x in range(24) for y in range(24) if rng.random() < 0.35])
    history = run(soup, CONWAY_LIFE, 30)
    profile = complexity_profile(history, [1, 2, 4])
    bits = profile.bits
    assert bits[2] <= bits[1] <= bits[0]


def test_profile_omega_bounded_by_history_length():
    rng = random.Random(78)
    soup = Grid([(x, y) for x in range(16) for y in range(16) if rng.random() < 0.35])
    history = list(run(soup, CONWAY_LIFE, 12))
    profile = complexity_profile(history, [1, 2])
    for census in profile:
        assert 1 <= census.omega <= len(history)
        assert census.sample_size == len(history)


def test_profile_of_generator_equals_profile_of_list():
    rng = random.Random(79)
    soup = Grid([(x, y) for x in range(16) for y in range(16) if rng.random() < 0.35])
    expected = complexity_profile(list(run(soup, CONWAY_LIFE, 12)), [1, 2, 4])
    assert complexity_profile(run(soup, CONWAY_LIFE, 12), [1, 2, 4]) == expected
    assert expected.entries[0].sample_size == 13
    with pytest.raises(ValueError):
        complexity_profile(iter([]), [1])


def test_profile_rejects_bad_inputs():
    history = list(run(BLOCK, CONWAY_LIFE, 2))
    with pytest.raises(ValueError):
        complexity_profile([], [1, 2])
    with pytest.raises(ValueError):
        complexity_profile(history, [])
    with pytest.raises(ValueError):
        complexity_profile(history, [2, 1])
    with pytest.raises(ValueError):
        complexity_profile(history, [2, 3])  # not a divisibility chain


def test_profile_distinct_states_keep_fixed_anchoring():
    # a pattern and its translate are different observed states
    history = [BLOCK, BLOCK.translate((5, 5))]
    profile = complexity_profile(history, [1])
    assert profile.entries[0].omega == 2


# Divisibility chains of powers of two, of three, a mixed one, one past a
# typical box, and a single scale above 1.
CHAINS = [[1, 2, 4, 8], [1, 3, 9], [2, 6], [1, 2, 4, 8, 16], [5]]
GLIDER = Grid([(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)])


def outcome(measure, history, scales):
    """Each census of ``measure``'s profile, or the error it raised."""
    try:
        profile = measure(history, scales)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(c.scale, c.omega, c.bits, c.sample_size) for c in profile]


def assert_matches_reference(make_history, scales):
    """``make_history()`` gives a fresh history, since a run is read once."""
    got = outcome(complexity_profile, make_history(), scales)
    assert got == outcome(reference_profile, make_history(), scales)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_profile_matches_the_reference_on_random_runs(data):
    """Soups anywhere in the plane under random B/S rules, coloured or not,
    with the engine's density policy patched so that runs stay on the
    board, stay on the coordinate set, or switch between them."""
    birth = data.draw(st.frozensets(st.integers(1, 8)), label="birth")
    survival = data.draw(st.frozensets(st.integers(0, 8)), label="survival")
    states = data.draw(st.sampled_from([2, 2, 3]), label="states")
    ox, oy = data.draw(st.integers(-70, 5), label="ox"), data.draw(st.integers(-70, 5), label="oy")
    size = data.draw(st.integers(1, 24), label="size")
    density = data.draw(st.sampled_from([0.05, 0.2, 0.35, 0.6]), label="density")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    soup = Grid({
        (ox + x, oy + y): rng.randint(1, states - 1)
        for x in range(size) for y in range(size) if rng.random() < density
    })
    rule = RuleSet(birth, survival, states)
    gens = data.draw(st.integers(0, 30), label="gens")
    scales = data.draw(st.sampled_from(CHAINS), label="scales")
    sparse = data.draw(st.sampled_from([None, 0, 16, 10**9]), label="sparse")
    with pytest.MonkeyPatch.context() as mp:
        if sparse is not None:
            mp.setattr(automaton, "_SPARSE", sparse)
        assert_matches_reference(lambda: run(soup, rule, gens), scales)


# Coordinates near the origin, with now and then one far out, so that a
# built grid may be dense, sparse, or both at different scales.
COORDS = st.one_of(st.integers(-40, 40), st.sampled_from([-10**5, -65, 63, 10**4, 2**20 + 3]))


@settings(max_examples=120, deadline=None)
@given(
    pool=st.lists(
        st.dictionaries(st.tuples(COORDS, COORDS), st.integers(1, 3), max_size=40),
        min_size=1, max_size=4,
    ),
    picks=st.lists(st.integers(0, 3), max_size=8),
    coloured=st.booleans(),
    scales=st.sampled_from(CHAINS),
)
def test_profile_matches_the_reference_on_built_histories(pool, picks, coloured, scales):
    """User-built dict grids, empty ones among them, repeated so that
    states recur."""
    grids = [Grid(cells if coloured else dict.fromkeys(cells, 1)) for cells in pool]
    history = [grids[i % len(grids)] for i in picks]
    assert_matches_reference(lambda: iter(history), scales)


def gliders_flying_apart():
    away = Grid([(-10 - x, -10 - y) for x, y in GLIDER.cells])
    return Grid(set(GLIDER.cells) | set(away.cells))


def far_apart_blinkers():
    blinker = [(0, -1), (0, 0), (0, 1)]
    return Grid(blinker + [(x + 10**4, y + 10**4) for x, y in blinker])


@pytest.mark.parametrize("make_history, scales", [
    (lambda: run(gliders_flying_apart(), CONWAY_LIFE, 300), [1, 2, 4, 8]),
    (lambda: run(gliders_flying_apart(), CONWAY_LIFE, 300), [1, 3, 9]),
    (lambda: run(far_apart_blinkers(), CONWAY_LIFE, 6), [1, 2, 4, 8, 16]),
    (lambda: [Grid({(0, 0): 1}), Grid({(0, 0): 2})], [1]),
    (lambda: [Grid({(0, 0): 1}), Grid({(0, 0): 2})], [1, 2]),
    (lambda: [Grid({(0, 0): 1}), Grid({(0, 0): 2})], [2]),
    (lambda: [Grid(), Grid(), Grid([(0, 0)])], [1, 2, 4, 8]),
    (lambda: [Grid([(0, 0)], topology=Topology.HEX)], [1]),
    (lambda: [Grid([(0, 0)], topology=Topology.HEX)], [2, 4]),
    (lambda: [], [1, 2]),
    (lambda: iter([]), [1]),
    (lambda: [BLOCK], []),
    (lambda: [BLOCK], [0, 2]),
    (lambda: [BLOCK], [2, 1]),
    (lambda: [BLOCK], [2, 3]),
    (lambda: [BLOCK], [1, -2]),
], ids=["gliders-1248", "gliders-139", "blinkers", "colours-1", "colours-12", "colours-2",
        "empty-grids", "hex-1", "hex-24", "empty-list", "empty-iterator", "no-scales",
        "zero-scale", "descending", "not-dividing", "negative-scale"])
def test_profile_matches_the_reference_on_fixed_histories(make_history, scales):
    assert_matches_reference(make_history, scales)


def key_pairs(cells, scales):
    """At each scale, the key of the blocks of ``cells`` from their
    coordinates and the key read off the bits of their packed layout,
    coarse-grained as ``complexity_profile`` does it."""
    bits, stride, height, ox, oy = grid._align(grid._pack(cells, 0, 10**9),
                                               math.lcm(8, scales[-1]))
    finer, pairs = 1, []
    for s in scales:
        bits = grid._any_blocks(bits, stride, height, finer, s)
        pairs.append((grid._key({(x // s, y // s) for x, y in cells}, s),
                      grid._packed_key((bits, stride, height, ox, oy), s)))
        finer = s
    return pairs


@st.composite
def cell_sets(draw):
    """Cells in a box anywhere near the origin, packed close together or
    spread out."""
    ox, oy = draw(st.integers(-100, 50)), draw(st.integers(-100, 50))
    span = draw(st.sampled_from([3, 8, 30, 300]))
    coords = st.tuples(st.integers(ox, ox + span), st.integers(oy, oy + span))
    return draw(st.sets(coords, min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(cells=cell_sets(), scales=st.sampled_from([[1, 2, 4, 8], [1, 3, 9]]))
def test_packed_and_coordinate_keys_agree(cells, scales):
    for by_coordinates, by_bits in key_pairs(cells, scales):
        assert by_coordinates == by_bits


@pytest.mark.parametrize("cells, scales, forms", [
    ({(x, y) for x in range(-9, 7) for y in range(-5, 3) if (x + y) % 3}, [1, 3, 9], [tuple] * 3),
    ({(-150, -7), (0, 0), (149, 60)}, [1, 3, 9], [frozenset] * 3),
    # 3 byte columns by 42 and 43 rows, either side of 64 bytes a cell.
    ({(0, 0), (16, 41)}, [1], [tuple]),
    ({(0, 0), (16, 42)}, [1], [frozenset]),
], ids=["dense", "sparse", "dense-at-the-bound", "sparse-past-the-bound"])
def test_packed_and_coordinate_keys_agree_in_each_form(cells, scales, forms):
    for (by_coordinates, by_bits), form in zip(key_pairs(cells, scales), forms):
        assert type(by_coordinates) is type(by_bits) is form
        assert by_coordinates == by_bits


def traced_peak(measure):
    tracemalloc.start()
    try:
        measure()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_profile_of_far_apart_blinkers_runs_in_bounded_memory():
    peak = traced_peak(lambda: complexity_profile(run(far_apart_blinkers(), CONWAY_LIFE, 10),
                                                  [1, 2, 4, 8]))
    assert peak < 2**20


def test_profile_at_a_huge_scale_runs_in_bounded_memory():
    rng = random.Random(40)
    soup = Grid([(x, y) for x in range(40) for y in range(40) if rng.random() < 0.35])
    peak = traced_peak(lambda: complexity_profile(run(soup, CONWAY_LIFE, 40),
                                                  [1, 2, 4, 8, 1048576]))
    assert peak < 4 * 2**20


def test_profile_of_a_board_run_decodes_only_to_repack(monkeypatch):
    """Board generations are coarse-grained and counted on their bits: the
    only decodes are the engine's re-packs, and no ``Grid`` is hashed."""
    counts = {"decode": 0, "pack": 0}
    decode, pack = grid._decode, automaton._pack

    def counted_decode(*board):
        counts["decode"] += 1
        return decode(*board)

    def counted_pack(cells, margin, sparse):
        counts["pack"] += 1
        return pack(cells, margin, sparse)

    def unhashable(self):
        raise AssertionError("a Grid was hashed")

    monkeypatch.setattr(grid, "_decode", counted_decode)
    monkeypatch.setattr(automaton, "_pack", counted_pack)
    monkeypatch.setattr(Grid, "__hash__", unhashable)
    rng = random.Random(80)
    soup = Grid([(x, y) for y in range(80) for x in range(80) if rng.random() < 0.35])
    profile = complexity_profile(run(soup, CONWAY_LIFE, 80), [1, 2, 4, 8])
    repacks = counts["pack"] - 1  # the first pack reads generation 0, a dict grid
    assert counts["decode"] == repacks < 20
    assert profile.entries[0].sample_size == 81
