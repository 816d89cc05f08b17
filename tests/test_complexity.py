import math
import random

import pytest

from complexkit.automaton import CONWAY_LIFE, run
from complexkit.complexity import (
    coarse_grain,
    complexity_profile,
    info_bits,
    theoretical_bits,
)
from complexkit.grid import Grid, Topology

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
