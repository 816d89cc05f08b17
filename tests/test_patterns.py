import random

import pytest

from complexkit.automaton import RuleSet
from complexkit.grid import Grid, Topology
from complexkit.patterns import (
    PatternFormatError,
    UnsupportedFormatError,
    decode_pattern,
    encode_pattern,
)

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
