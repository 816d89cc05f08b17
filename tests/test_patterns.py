import random
import re
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from complexkit import patterns
from complexkit.automaton import CONWAY_LIFE, RuleSet, run
from complexkit.grid import Grid, Topology, _layout, _pack
from complexkit.patterns import (
    PatternFormatError,
    UnsupportedFormatError,
    decode_pattern,
    encode_pattern,
)

from oracles import coordinate_decode_plaintext, coordinate_decode_rle

GLIDER_RLE = "x = 3, y = 3, rule = B3/S23\nbob$2bo$3o!"
GLIDER_CELLS = {(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)}


def random_grid(rng, multistate=False):
    cells = {}
    for _ in range(rng.randint(1, 40)):
        coord = (rng.randint(-15, 15), rng.randint(-15, 15))
        cells[coord] = rng.randint(1, 5) if multistate else 1
    return Grid(cells)


def test_decode_glider_body():
    grid, rule = decode_pattern("bob$2bo$3o!")
    assert set(grid.cells) == GLIDER_CELLS
    assert rule is None


def test_decode_glider_with_header():
    grid, rule = decode_pattern(GLIDER_RLE)
    assert set(grid.cells) == GLIDER_CELLS
    assert rule == RuleSet.parse("B3/S23")


def test_decode_comments_and_whitespace():
    text = "#C a glider\n# another comment\nx = 3, y = 3, rule = B3/S23\nbob$\n2bo$\n3o!"
    grid, _ = decode_pattern(text)
    assert set(grid.cells) == GLIDER_CELLS


def test_decode_empty_pattern():
    grid, _ = decode_pattern("!")
    assert grid == Grid()


def test_decode_blank_rows_collapse():
    grid, _ = decode_pattern("o3$o!")
    assert set(grid.cells) == {(0, 0), (0, 3)}
    assert encode_pattern(grid) == "x = 1, y = 4, rule = B3/S23\no3$o!"


def test_encode_block_pinned():
    block = Grid([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert encode_pattern(block) == "x = 2, y = 2, rule = B3/S23\n2o$2o!"


def test_encode_empty_pinned():
    assert encode_pattern(Grid()) == "x = 0, y = 0, rule = B3/S23\n!"


def test_encode_glider_pinned():
    # trailing dead cells in a row are omitted
    glider = Grid(GLIDER_CELLS)
    assert encode_pattern(glider) == "x = 3, y = 3, rule = B3/S23\nbo$2bo$3o!"


def test_encode_is_canonical_and_deterministic():
    g = Grid([(7, -3), (8, -3)])
    assert encode_pattern(g) == encode_pattern(g.canonicalize())
    assert encode_pattern(g) == encode_pattern(g)


def test_unknown_symbol_reports_position():
    with pytest.raises(PatternFormatError) as exc:
        decode_pattern("x = 2, y = 1, rule = B3/S23\noz!")
    assert exc.value.line == 2 and exc.value.column == 2


def test_zero_run_count_rejected():
    with pytest.raises(PatternFormatError):
        decode_pattern("0o!")


def test_missing_terminator_rejected():
    with pytest.raises(PatternFormatError):
        decode_pattern("x = 2, y = 1, rule = B3/S23\n2o")


def test_hex_grid_not_encodable():
    g = Grid([(0, 0)], topology=Topology.HEX)
    with pytest.raises(UnsupportedFormatError):
        encode_pattern(g)


def test_multistate_rle_roundtrip():
    g = Grid({(0, 0): 1, (1, 0): 2, (2, 0): 24})
    text = encode_pattern(g)
    assert "B" in text and "X" in text
    back, _ = decode_pattern(text)
    assert back == g


def test_rle_roundtrip_randomized():
    rng = random.Random(31)
    for _ in range(100):
        g = random_grid(rng, multistate=rng.random() < 0.3)
        back, _ = decode_pattern(encode_pattern(g))
        assert back == g.canonicalize()


def test_plaintext_roundtrip_randomized():
    rng = random.Random(32)
    for _ in range(100):
        g = random_grid(rng)
        back, _ = decode_pattern(encode_pattern(g, "plaintext"), "plaintext")
        assert back == g.canonicalize()


def test_plaintext_pinned():
    blinker = Grid([(0, 0), (0, 1), (0, 2)])
    assert encode_pattern(blinker, "plaintext") == "O\nO\nO\n"
    g, _ = decode_pattern("!comment\n.O.\nOOO\n", "plaintext")
    assert set(g.cells) == {(1, 0), (0, 1), (1, 1), (2, 1)}


def test_plaintext_rejects_multistate():
    with pytest.raises(UnsupportedFormatError):
        encode_pattern(Grid({(0, 0): 2}), "plaintext")


def test_plaintext_unknown_symbol():
    with pytest.raises(PatternFormatError):
        decode_pattern("..X\n", "plaintext")


def test_encode_injective_on_random_pairs():
    rng = random.Random(33)
    for _ in range(100):
        a = random_grid(rng).canonicalize()
        b = random_grid(rng).canonicalize()
        if a != b:
            assert encode_pattern(a) != encode_pattern(b)


def test_rle_names_the_first_unencodable_state_in_row_major_order():
    g = Grid({(5, 0): 30, (0, 1): 25, (3, 0): 26})
    with pytest.raises(UnsupportedFormatError, match="got state 26$"):
        encode_pattern(g)


def test_encoding_reads_live_cells_not_the_box():
    # The box holds 10**10 cells; only its two live cells are read.
    g = Grid([(-7, 3), (10**5 - 7, 10**5 + 3)])
    assert encode_pattern(g) == "x = 100001, y = 100001, rule = B3/S23\no100000$100000bo!"


def test_the_decoders_build_their_grids_without_the_checking_constructor(monkeypatch):
    # A decoder makes int coordinates and states 1..24 itself, so it hands
    # its cells to Grid._trusted and the traced Grid.__init__ never runs.
    def refuse(self, *args, **kwargs):
        raise AssertionError("Grid.__init__ called")

    monkeypatch.setattr(Grid, "__init__", refuse)
    assert decode_pattern("x = 3, y = 2\nobB$o!")[0].cells == {(0, 0): 1, (2, 0): 2, (0, 1): 1}
    assert decode_pattern("O.O\n.O\n", "plaintext")[0].cells == {(0, 0): 1, (2, 0): 1,
                                                                  (1, 1): 1}


def outcome(decode, text):
    """What ``decode`` makes of ``text``: its result, or the type and
    message of what it raised."""
    try:
        return decode(text)
    except Exception as exc:
        return type(exc), str(exc)


# Counts and symbols of RLE body text, well-formed or not: zero counts, a
# non-ASCII decimal digit, a digit that int() refuses, Unicode whitespace
# and unknown symbols.
RLE_COUNTS = st.sampled_from(["", "", "", "1", "2", "3", "12", "0", "07", "\u0663", "\u00b2"])
RLE_SYMBOLS = st.sampled_from([*"bbbooooo$$!ABXYz#.", "", " ", "\t", "\r", "\n", "\n",
                               "\u2028", "\x85"])
RLE_HEADERS = st.sampled_from(["", "x = 3, y = 2, rule = B3/S23\n", "x = 0, y = 0\n",
                               "#C a comment\n\n", "x = 1, y = 1, rule = B9/S\n",
                               "x = 1, y = 1, rule = B36/S23\n", "  \n"])


@st.composite
def rle_texts(draw):
    units = draw(st.lists(st.tuples(RLE_COUNTS, RLE_SYMBOLS).map("".join), max_size=40))
    text = draw(RLE_HEADERS) + "".join(units) + draw(st.sampled_from(["!", "", "!\n", "!z 0"]))
    # A count may go on across a line end; keep every one small enough for
    # the oracle, which writes its cells one by one.
    assume(all(sum(c.isdigit() for c in run) <= 4
               for run in re.findall(r"[0-9\u0663\u00b2\n]+", text)))
    return text


@st.composite
def grids(draw):
    coords = st.tuples(st.integers(-20, 20), st.integers(-20, 20))
    states = st.integers(1, 3) if draw(st.booleans()) else st.just(1)
    return Grid(draw(st.dictionaries(coords, states, max_size=60)))


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(rle_texts(), grids().map(encode_pattern)))
def test_the_rle_decoder_matches_the_coordinate_decoder(text):
    assert outcome(decode_pattern, text) == outcome(coordinate_decode_rle, text)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.lists(st.one_of(st.text(".O", max_size=12),
                       st.sampled_from(["", "!comment", " ", "..O\r", "O.x", "\t", "OO\u2028"])),
             max_size=12).map("\n".join),
    grids().filter(lambda g: max(g.cells.values(), default=1) == 1)
           .map(lambda g: encode_pattern(g, "plaintext"))))
def test_the_plaintext_decoder_matches_the_coordinate_decoder(text):
    assert (outcome(lambda t: decode_pattern(t, "plaintext"), text)
            == outcome(coordinate_decode_plaintext, text))


def test_a_dense_two_state_pattern_decodes_to_a_packed_grid():
    assert _layout(decode_pattern(GLIDER_RLE)[0]) is not None
    assert _layout(decode_pattern(".O.\n..O\nOOO\n", "plaintext")[0]) is not None
    assert _layout(decode_pattern("x = 3, y = 2\nobB$o!")[0]) is None  # a colour
    assert _layout(decode_pattern("!")[0]) is None


@pytest.mark.parametrize("text, cells", [
    ("o999999999bo!", {(0, 0), (10**9, 0)}),
    ("o$999999999$o!", {(0, 0), (0, 10**9)}),
], ids=["wide", "tall"])
def test_a_sparse_rle_decodes_to_its_coordinates_in_bounded_time_and_memory(text, cells):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        grid, _ = decode_pattern(text)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 2**20
    assert _layout(grid) is None and grid.cells == dict.fromkeys(cells, 1)


@settings(max_examples=300, deadline=None)
@given(
    segments=st.lists(st.tuples(st.integers(-30, 30), st.integers(-10, 10), st.integers(1, 20)),
                      min_size=1, max_size=12),
    shift=st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    margin=st.integers(0, 9),
)
def test_packed_rows_encode_like_the_coordinate_rows(segments, shift, margin):
    cells = {(x + i + shift[0], y + shift[1]) for x, y, n in segments for i in range(n)}
    packed = Grid._trusted(_pack(cells, margin, 10**9), Topology.SQUARE)
    twin = Grid(cells)
    corner = twin.bounding_box()[0]
    assert packed.bounding_box() == twin.bounding_box()
    assert list(patterns._rows(packed, *corner)) == list(patterns._rows(twin, *corner))
    for fmt in ("rle", "plaintext"):
        assert encode_pattern(packed, fmt) == encode_pattern(twin, fmt)
    assert packed._cells is None  # read off the layout


def test_a_soup_decodes_runs_and_encodes_in_small_memory():
    # 100x100 at 35 %, RLE in, 90 generations, RLE out. Held as coordinate
    # dicts, the decoded soup and the engine's re-packs peaked near 530 KiB.
    rng = random.Random(26)
    text = encode_pattern(Grid([(x, y) for y in range(100) for x in range(100)
                                if rng.random() < 0.35]))
    tracemalloc.start()
    try:
        grid, rule = decode_pattern(text)
        for last in run(grid, rule or CONWAY_LIFE, 90):
            pass
        out = encode_pattern(last, rule=rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.startswith("x = ") and peak < 192 * 2**10
