import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexkit.automaton import RuleSet, run
from complexkit.grid import Grid, Topology, _decode, _pack, _ring, neighbors
from complexkit.patterns import encode_pattern


def test_square_neighbors_of_origin():
    assert set(neighbors((0, 0), Topology.SQUARE)) == {
        (-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1),
    }
    assert len(neighbors((0, 0), Topology.SQUARE)) == 8


def test_square_neighbor_order_is_row_major():
    assert neighbors((0, 0), Topology.SQUARE) == [
        (-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1),
    ]


def test_hex_neighbors_of_origin_clockwise():
    assert neighbors((0, 0), Topology.HEX) == [
        (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1),
    ]


@pytest.mark.parametrize("topology", [Topology.SQUARE, Topology.HEX])
def test_neighbor_symmetry_randomized(topology):
    rng = random.Random(12)
    for _ in range(1000):
        a = (rng.randint(-50, 50), rng.randint(-50, 50))
        b = (rng.randint(-50, 50), rng.randint(-50, 50))
        assert (b in neighbors(a, topology)) == (a in neighbors(b, topology))


@pytest.mark.parametrize("topology", [Topology.SQUARE, Topology.HEX])
def test_neighbors_shape(topology):
    rng = random.Random(3)
    for _ in range(100):
        c = (rng.randint(-100, 100), rng.randint(-100, 100))
        ns = neighbors(c, topology)
        assert len(ns) == topology.degree
        assert len(set(ns)) == topology.degree
        assert c not in ns


def test_sparsity_dead_cells_never_stored():
    g = Grid({(0, 0): 1, (1, 1): 0, (2, 2): 3})
    assert set(g.cells) == {(0, 0), (2, 2)}
    assert g.population == 2
    assert g.state((1, 1)) == 0


@pytest.mark.parametrize("cells, coord", [
    ({(0.5, 0): 1, (0.9, 0): 2}, (0.5, 0)),
    ([(1.7, 0)], (1.7, 0)),
    ([("3", 4)], ("3", 4)),
    ([(1, 2, 3)], (1, 2, 3)),
    ([(1,)], (1,)),
    ([7], 7),
], ids=["floats-that-would-merge", "float", "string", "triple", "single", "not-a-pair"])
def test_a_coordinate_that_is_not_two_ints_is_refused(cells, coord):
    with pytest.raises(ValueError) as exc:
        Grid(cells)
    assert str(exc.value) == f"a coordinate must be a pair of ints, got {coord!r}"


def test_integer_like_coordinates_are_kept_as_ints():
    np = pytest.importorskip("numpy")
    g = Grid([(np.int64(3), np.int32(-4)), (True, False), [5, 6]])
    assert g.cells == {(3, -4): 1, (1, 0): 1, (5, 6): 1}
    assert all(type(v) is int for coord in g.cells for v in coord)


def test_negative_state_rejected():
    with pytest.raises(ValueError):
        Grid({(0, 0): -1})


def test_translate_empty():
    assert Grid().translate((5, 5)) == Grid()


def test_translate_single_cell():
    assert Grid({(0, 0): 1}).translate((2, -3)) == Grid({(2, -3): 1})


def test_translate_roundtrip_randomized():
    rng = random.Random(7)
    for _ in range(50):
        g = Grid({(rng.randint(-20, 20), rng.randint(-20, 20)): rng.randint(1, 3)
                  for _ in range(rng.randint(0, 30))})
        d = (rng.randint(-40, 40), rng.randint(-40, 40))
        assert g.translate(d).translate((-d[0], -d[1])) == g
        assert g.translate(d).population == g.population


def test_canonicalize_shifts_to_origin():
    assert Grid([(10, 10), (10, 11)]).canonicalize() == Grid([(0, 0), (0, 1)])


def test_canonicalize_empty():
    assert Grid().canonicalize() == Grid()
    assert Grid().bounding_box() is None


def test_canonicalize_translation_invariant():
    rng = random.Random(9)
    for _ in range(50):
        g = Grid([(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(10)])
        d = (rng.randint(-30, 30), rng.randint(-30, 30))
        assert g.translate(d).canonicalize() == g.canonicalize()


@settings(max_examples=100, deadline=None)
@given(topology=st.sampled_from(list(Topology)), generations=st.integers(0, 40), data=st.data())
def test_packed_generations_behave_like_their_dict_twins(topology, generations, data):
    """Each packed generation of a two-state run, fresh for every read,
    against a dict grid with the same cells in the same order."""
    degree = topology.degree
    birth = data.draw(st.frozensets(st.integers(1, degree)), label="birth")
    survival = data.draw(st.frozensets(st.integers(0, degree)), label="survival")
    cells = data.draw(
        st.sets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=40), label="cells")
    shift = data.draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), label="shift")
    for g in run(Grid(cells, topology), RuleSet(birth, survival), generations):
        if g._packed is None:
            continue

        def packed():
            return Grid._trusted(g._packed, topology)

        twin = Grid(dict(packed().cells), topology)
        for read in (lambda p: p.population, len, bool):
            p = packed()
            assert read(p) == read(twin)
            assert p._cells is None  # answered from the bit count
        assert packed() == twin and twin == packed() and packed() == packed()
        other = Topology.HEX if topology is Topology.SQUARE else Topology.SQUARE
        assert packed() != Grid(twin.cells, other)
        assert hash(packed()) == hash(twin)
        assert list(packed().cells.items()) == list(twin.cells.items())
        assert list(packed()) == list(twin)
        assert sorted(twin.cells, key=lambda c: (c[1], c[0])) == list(twin.cells)  # row-major
        probes = [*list(twin.cells)[:3], (99, 99), shift]
        assert [packed().state(c) for c in probes] == [twin.state(c) for c in probes]
        assert [c in packed() for c in probes] == [c in twin for c in probes]
        assert packed().bounding_box() == twin.bounding_box()
        for moved, expected in ((packed().translate(shift), twin.translate(shift)),
                                (packed().canonicalize(), twin.canonicalize())):
            assert moved == expected
            assert list(moved.cells.items()) == list(expected.cells.items())
        assert repr(packed()) == repr(twin)
        if topology is Topology.SQUARE:
            for fmt in ("rle", "plaintext"):
                assert encode_pattern(packed(), fmt).encode() == encode_pattern(twin, fmt).encode()


@settings(max_examples=300, deadline=None)
@given(
    corner=st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    size=st.tuples(st.integers(1, 100), st.integers(1, 100)),
    margin=st.sampled_from([0, 3, 8]),
    sparse=st.integers(1, 300),
    data=st.data(),
)
def test_pack_lays_out_decodes_and_rings_any_cell_set(corner, size, margin, sparse, data):
    (x0, y0), (w, h) = corner, size
    cells = data.draw(st.sets(st.tuples(st.integers(x0, x0 + w - 1), st.integers(y0, y0 + h - 1)),
                              max_size=30), label="cells")
    packed = _pack(cells, margin, sparse)
    if not cells:
        assert packed is None
        return
    # Thin, wide and negative boxes alike: the margin on every side, whole
    # bytes per row.
    bits, stride, height, ox, oy = _pack(cells, margin, 10**9)
    min_x, min_y = min(x for x, _ in cells), min(y for _, y in cells)
    width = max(x for x, _ in cells) - min_x + 1 + 2 * margin
    assert (ox, oy) == (min_x - margin, min_y - margin)
    assert stride % 8 == 0 and width <= stride < width + 8
    assert height == max(y for _, y in cells) - min_y + 1 + 2 * margin
    assert (packed is None) == (stride * height > sparse * len(cells))
    fits = -(-stride * height // len(cells))  # fewest cells per live cell that pack
    assert _pack(cells, margin, fits) is not None and _pack(cells, margin, fits - 1) is None
    assert packed is None or packed == (bits, stride, height, ox, oy)
    assert _decode(bits, stride, height, ox, oy) == sorted(cells, key=lambda c: (c[1], c[0]))
    order = data.draw(st.permutations(sorted(cells)), label="order")
    assert _pack(order, margin, 10**9) == _pack(dict.fromkeys(order, 1), margin, 10**9) == (
        bits, stride, height, ox, oy)
    ring = _ring(stride, height)
    edges = {(i % stride, i // stride) for i in range(stride * height) if ring >> i & 1}
    assert edges == {(c, r) for r in range(height) for c in range(stride)
                     if r in (0, height - 1) or c in (0, stride - 1)}
    assert ring < 1 << stride * height
    if margin:
        assert not bits & ring
