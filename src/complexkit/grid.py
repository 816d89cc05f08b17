"""Sparse unbounded lattices (square Moore and hexagonal axial).

A grid holds only its non-dead cells, so the lattice itself has no edges.
It keeps them in a coordinate -> state map, or, for a two-state pattern
that a codec decoded or a generation that the automaton stepped as bits,
as a packed layout: the map is then decoded on first read, and the
population, truthiness and bounding box come from the bits without a
decode. Square coordinates are (x, y) cell offsets; hexagonal coordinates
are axial (q, r) pairs on a honeycomb. ``Grid`` takes each coordinate as
exactly two integers (``operator.index``), so a float, a string or a
longer tuple is refused, not truncated.

This module owns the packed layout. ``_pack`` builds it from coordinates
and ``_from_runs`` from a codec's runs, one int per row; ``_decode``
reads its cells and ``_row_runs`` its rows, a byte at a time, for the
encoders; ``_ring`` masks its edge cells; ``_relayout`` lays it out again
on the bits, with a margin for the automaton's next steps or on absolute
byte columns for the census; ``_layout`` hands a grid's layout to the
modules that step, encode or re-topologise it. The automaton only steps
the bits and decides when to re-pack. ``_key`` and ``_packed_key`` give a
cell set a hashable key that does not depend on how the set is held, and
``_state_keys`` gives the complexity census a grid's key at each of its
scales, reading a packed grid's layout without decoding it.
``coarse_grain`` maps a square grid to the grid of its blocks at one
scale (``cas.observe`` uses it); the scale must be an integer >= 1,
through ``_shared.as_integer``.
"""

from __future__ import annotations

import enum
import math
from operator import index
from typing import Collection, Hashable, Iterable, Iterator, Mapping, Sequence

from ._shared import as_integer

Coordinate = tuple[int, int]

# Row-major scan order of the Moore neighborhood.
_SQUARE_OFFSETS: tuple[Coordinate, ...] = (
    (-1, -1), (0, -1), (1, -1),
    (-1, 0), (1, 0),
    (-1, 1), (0, 1), (1, 1),
)

# Clockwise starting from (+1, 0), in axial coordinates.
_HEX_OFFSETS: tuple[Coordinate, ...] = (
    (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1),
)


class Topology(enum.Enum):
    """Lattice kind; fixes the neighbor set and its enumeration order."""

    SQUARE = "square"
    HEX = "hex"

    @property
    def degree(self) -> int:
        return 8 if self is Topology.SQUARE else 6

    @property
    def offsets(self) -> tuple[Coordinate, ...]:
        return _SQUARE_OFFSETS if self is Topology.SQUARE else _HEX_OFFSETS


def neighbors(coord: Coordinate, topology: Topology) -> list[Coordinate]:
    """Return the neighbors of ``coord`` in the topology's fixed order."""
    x, y = coord
    return [(x + dx, y + dy) for dx, dy in topology.offsets]


# A packed layout: bit ``(y - oy) * stride + (x - ox)`` is live cell (x, y),
# in a region of ``stride`` columns (a multiple of 8, so each row is whole
# bytes) by ``height`` rows. Each pack takes a new origin, so the lattice
# stays unbounded.
_Packed = tuple[int, int, int, int, int]  # (bits, stride, height, ox, oy)

# Set-bit offsets of each byte value, lowest bit first.
_BYTE_BITS = tuple(tuple(k for k in range(8) if v >> k & 1) for v in range(256))

# Most layout cells per live cell for which cells are packed; sparser ones
# (a decoded pattern, a generation ``automaton`` steps) stay coordinates,
# whose cost follows the population, not the box. On a 2-vCPU Xeon with
# CPython 3.11 a board step costs 1.2-3 ns per cell of its box (less on
# larger boards) and a set step 1.7-2.5 us per live cell, so the two cross
# near 1000; a 64x64 soup run 2000 generations takes the same time for any
# value from 512 to 8192.
_SPARSE = 1024


def _box(coords: Collection[Coordinate]) -> tuple[Coordinate, Coordinate] | None:
    """((min_x, min_y), (max_x, max_y)) of ``coords``; None if empty."""
    if not coords:
        return None
    xs = [x for x, _ in coords]
    ys = [y for _, y in coords]
    return (min(xs), min(ys)), (max(xs), max(ys))


def _pack(cells: Collection[Coordinate], margin: int, sparse: int) -> _Packed | None:
    """``cells`` packed with ``margin`` empty cells around them, or None if
    there are none or the layout would hold more than ``sparse`` cells per
    live cell."""
    box = _box(cells)
    if box is None:
        return None
    (min_x, min_y), (max_x, max_y) = box
    ox, oy = min_x - margin, min_y - margin
    stride = -(-(max_x - ox + 1 + margin) // 8) * 8
    height = max_y - oy + 1 + margin
    if stride * height > sparse * len(cells):
        return None
    buf = bytearray(stride * height // 8)
    for x, y in cells:
        i = (y - oy) * stride + x - ox
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little"), stride, height, ox, oy


def _ring(stride: int, height: int) -> int:
    """The edge cells of a layout: row 0, the last row, column 0 and
    column ``stride - 1``."""
    row = (1 << stride) - 1
    columns = (1 | 1 << (stride - 1)).to_bytes(stride // 8, "little") * height
    return int.from_bytes(columns, "little") | row | row << (height - 1) * stride


def _decode(bits: int, stride: int, height: int, ox: int, oy: int) -> list[Coordinate]:
    """The live cells of a packed layout, row by row."""
    out: list[Coordinate] = []
    append = out.append
    data = bits.to_bytes(stride * height // 8, "little")
    row_bytes = stride // 8
    blank = bytes(row_bytes)
    y = oy
    for start in range(0, len(data), row_bytes):
        row = data[start : start + row_bytes]
        if row != blank:
            x0 = ox
            for byte in row:
                if byte:
                    for k in _BYTE_BITS[byte]:
                        append((x0 + k, y))
                x0 += 8
        y += 1
    return out


def _layout(grid: Grid) -> _Packed | None:
    """The packed layout that holds ``grid``'s cells, or None if it holds
    a coordinate map. A layout does not depend on the topology."""
    return grid._packed


def _from_runs(runs: list[int]) -> Grid:
    """The square grid of ``runs``, a flat list of (y, x, n, state) for
    each run of ``n`` cells of ``state`` from (x, y) on, in reading order
    and none overlapping. It is packed, one int per row, when every state
    is 1 and its box holds at most ``_SPARSE`` cells per live cell,
    which is decided before anything the size of the box is built; else it
    maps the cells' coordinates in the order of the runs."""
    count = end = 0
    min_x = runs[1] if runs else 0
    two_state = True
    for _, x, n, state in zip(*[iter(runs)] * 4):
        count += n
        min_x = x if x < min_x else min_x
        end = x + n if x + n > end else end
        two_state = two_state and state == 1
    if runs:
        min_y, height = runs[0], runs[-4] - runs[0] + 1
        stride = -(-(end - min_x) // 8) * 8
    if not two_state or not runs or stride * height > _SPARSE * count:
        cells = {(x + i, y): s for y, x, n, s in zip(*[iter(runs)] * 4) for i in range(n)}
        return Grid._trusted(cells, Topology.SQUARE)
    rows: dict[int, int] = {}
    for y, x, n, _ in zip(*[iter(runs)] * 4):
        rows[y] = rows.get(y, 0) | ((1 << n) - 1) << x - min_x
    row_bytes = stride // 8
    data = bytearray(row_bytes * height)
    for y, row in rows.items():
        start = (y - min_y) * row_bytes
        data[start : start + row_bytes] = row.to_bytes(row_bytes, "little")
    return Grid._trusted((int.from_bytes(data, "little"), stride, height, min_x, min_y),
                         Topology.SQUARE)


def _row_runs(packed: _Packed, min_x: int, min_y: int) -> Iterator[tuple[int, list[list[int]]]]:
    """Each row of ``packed`` that holds a live cell, top to bottom: its y
    and its [state, length] runs from x = 0 (dead gaps are state 0),
    relative to (min_x, min_y), read off the layout a byte at a time."""
    bits, stride, height, ox, oy = packed
    row_bytes = stride // 8
    data = bits.to_bytes(row_bytes * height, "little")
    blank = bytes(row_bytes)
    for start in range(0, len(data), row_bytes):
        row = data[start : start + row_bytes]
        if row == blank:
            continue
        runs: list[list[int]] = []
        end, x0 = 0, ox - min_x
        for byte in row:
            if byte:
                # Each run of set bits in the byte starts on a bit whose lower
                # neighbour is clear and ends on one whose higher neighbour is.
                for a, b in zip(_BYTE_BITS[byte & ~(byte << 1) & 255],
                                _BYTE_BITS[byte & ~(byte >> 1)]):
                    if x0 + a > end:
                        runs.append([0, x0 + a - end])
                        runs.append([1, b - a + 1])
                    elif runs:  # the live run that ends at ``end`` goes on
                        runs[-1][1] += b - a + 1
                    else:
                        runs.append([1, b - a + 1])
                    end = x0 + b + 1
            x0 += 8
        yield oy - min_y + start // row_bytes, runs


def _extent(bits: int, stride: int) -> tuple[int, int, int, int]:
    """(top, bottom, first, last): the first and last row and column that
    hold a live cell of the non-empty layout ``bits``, ``stride`` wide."""
    top = ((bits & -bits).bit_length() - 1) // stride
    bottom = (bits.bit_length() - 1) // stride
    # OR every row into the top one to find the columns in use.
    rows, folded = 1, bits >> top * stride
    while rows <= bottom - top:
        folded |= folded >> rows * stride
        rows *= 2
    used = folded & ((1 << stride) - 1)
    return top, bottom, (used & -used).bit_length() - 1, used.bit_length() - 1


def _relayout(packed: _Packed, margin: int, sparse: float, unit: int = 1) -> _Packed | None:
    """The cells of ``packed`` laid out again with ``margin`` empty cells
    around them, the origin on multiples of ``unit`` (1 or a multiple of 8)
    and the stride a multiple of lcm(8, ``unit``); None if there are none
    or the layout would hold more than ``sparse`` cells per live cell.
    With ``unit`` 1 it is ``_pack`` of the cells, read off the bits."""
    bits, stride, height, ox, oy = packed
    if not bits:
        return None
    top, bottom, first, last = _extent(bits, stride)
    nox = (ox + first - margin) // unit * unit
    noy = (oy + top - margin) // unit * unit
    step = math.lcm(8, unit)
    width = -(-(ox + last + 1 + margin - nox) // step) * step
    rows = oy + bottom + 1 + margin - noy
    if width * rows > sparse * bits.bit_count():
        return None
    bits >>= top * stride
    move = ox - nox  # columns each cell moves right; left when negative
    if width == stride:
        bits = bits << move if move >= 0 else bits >> -move
    else:
        if move < 0:
            # Move left by the part of a byte first: every live column is
            # at least -move, so no cell crosses the start of its row.
            bits >>= -move % 8
            move += -move % 8
        # Copy each byte column ``lead`` bytes on in the new rows, then shift
        # the rest of ``move``: the bytes after each row take the carry, so
        # no cell on the last column wraps into the next row.
        lead, part = divmod(move, 8)
        old_bytes, new_bytes = stride // 8, width // 8
        span = bottom - top + 1
        data = bits.to_bytes(old_bytes * span, "little")
        out = bytearray(new_bytes * span)
        for k in range(max(0, -lead), min(old_bytes, new_bytes - lead)):
            out[lead + k :: new_bytes] = data[k::old_bytes]
        bits = int.from_bytes(out, "little") << part
    return bits << (oy + top - noy) * width, width, rows, nox, noy


# Most bytes a dense state key may hold per cell of its set. A sparser set
# is keyed by its coordinates instead, so a key's size follows the
# population and not the bounding box.
_KEY_BYTES = 64


def _key(blocks: Collection[Coordinate], scale: int) -> Hashable:
    """A key of the cells ``(x * scale, y * scale)`` for (x, y) in
    ``blocks``. At one scale, two cell sets have equal keys if and only if
    they are equal.

    A dense set is keyed as (x0, y0, width, data). ``data`` holds ``width``
    absolute byte columns, the first at x0 (a multiple of 8), one after the
    other; each column has a byte for every ``scale``-th row from y0, the
    lowest y, down to the highest, with bit x - x0 - 8 * column set for
    each cell. A sparse set is keyed as the frozenset of its cells, an
    empty one as None."""
    box = _box(blocks)
    if box is None:
        return None
    (min_x, min_y), (max_x, max_y) = box
    x0 = min_x * scale // 8 * 8
    width = (max_x * scale - x0) // 8 + 1
    rows = max_y - min_y + 1
    if width * rows > _KEY_BYTES * len(blocks):
        return frozenset((x * scale, y * scale) for x, y in blocks)
    buf = bytearray(width * rows)
    for x, y in blocks:
        i = x * scale - x0
        buf[(i >> 3) * rows + y - min_y] |= 1 << (i & 7)
    return x0, min_y * scale, width, bytes(buf)


def _packed_key(packed: _Packed, scale: int) -> Hashable:
    """``_key`` of the cells of ``packed``, a layout from ``_relayout``
    on a unit that ``scale`` divides, whose cells all sit on rows ``scale``
    apart from absolute row 0, read off its bits without a decode."""
    bits, stride, height, ox, oy = packed
    if not bits:
        return None
    top, bottom, first, last = _extent(bits, stride)
    span, first, last = bottom - top + 1, first // 8, last // 8
    width = last - first + 1
    if width * ((span - 1) // scale + 1) > _KEY_BYTES * bits.bit_count():
        return frozenset(_decode(*packed))
    row_bytes = stride // 8
    data = (bits >> top * stride).to_bytes(span * row_bytes, "little")
    columns = (data[j :: row_bytes * scale] for j in range(first, last + 1))
    return ox + 8 * first, oy + top, width, b"".join(columns)


def _anchor_mask(stride: int, height: int, scale: int) -> int:
    """The cells at multiples of ``scale`` of a layout from ``_relayout``
    on a unit that ``scale`` divides."""
    period = math.lcm(8, scale)
    pattern = sum(1 << x for x in range(0, period, scale)).to_bytes(period // 8, "little")
    row_bytes = stride // 8
    rows = (pattern * (stride // period) + bytes(row_bytes * (scale - 1))) * -(-height // scale)
    return int.from_bytes(rows[: row_bytes * height], "little")


def _any_blocks(bits: int, stride: int, height: int, finer: int, scale: int) -> int:
    """The live "any" blocks at ``scale``, each on its top-left cell, of
    ``bits``: a layout from ``_relayout`` on a unit that ``scale`` divides,
    holding the live blocks at ``finer`` on their top-left cells."""
    # "Any" blocks nest: OR the anchors of the finer scale that share a
    # block into its top-left cell, along each row and then down each
    # column, and keep only those cells.
    m = scale // finer
    if m == 1:
        return bits
    for step in (finer, finer * stride):
        done = 1
        while done < m:
            n = min(done, m - done)
            bits |= bits >> n * step
            done += n
    return bits & _anchor_mask(stride, height, scale)


def _state_keys(grid: Grid, scales: Sequence[int]) -> list[Hashable]:
    """The key of ``grid``'s state at each scale of ``scales``, an
    ascending divisibility chain, for the complexity census.

    Blocks are anchored at absolute (0, 0): the block of cell (x, y) at
    scale s is (x // s, y // s). Each key is ``_key`` of the blocks, so it
    depends only on the cells and not on how the grid holds them. A packed
    grid is coarse-grained on its layout: ``_relayout`` lays the bits out
    again on absolute columns, ``_any_blocks`` ORs shifted copies of them
    and keeps every s-th column and row, each scale starting from the
    previous scale's bits, and ``_packed_key`` reads the key off them. Once
    lcm(8, scale), the unit that scale aligns the layout to, exceeds the
    layout, the few cells left are coarse-grained on their coordinates. A
    dict grid is coarse-grained on its coordinates at every scale, at a
    cost that follows its population. At scale 1, a grid with states above
    1 is keyed by its cells and their states, so that colours count as
    they do in ``Grid`` equality; coarser scales are two-state."""
    if grid.topology is not Topology.SQUARE:
        raise ValueError("coarse graining is defined for square grids only")
    keys: list[Hashable] = []
    finer = 1  # the scale of the last key
    packed = grid._packed
    # A scale fits when its alignment unit does: the aligned layout is then
    # at most a few times the size of the generation's own.
    fit = [] if packed is None or not packed[0] else [
        s for s in scales if math.lcm(8, s) <= min(packed[1], packed[2])]
    if fit:
        bits, stride, height, ox, oy = _relayout(packed, 0, math.inf, math.lcm(8, fit[-1]))
        for s in fit:
            bits = _any_blocks(bits, stride, height, finer, s)
            keys.append(_packed_key((bits, stride, height, ox, oy), s))
            finer = s
        if len(keys) < len(scales):
            anchors = _decode(bits, stride, height, ox, oy)
            cells = [(x // finer, y // finer) for x, y in anchors]
    elif packed is not None:
        cells = _decode(*packed)
    else:
        cells = grid.cells
    # The scales left, on the coordinates of the blocks at scale ``finer``.
    for s in scales[len(keys):]:
        m = s // finer
        if m > 1:
            cells = {(x // m, y // m) for x, y in cells}
        keys.append(_key(cells, s))
        finer = s
    if scales[0] == 1 and packed is None and max(grid.cells.values(), default=1) > 1:
        keys[0] = frozenset(grid.cells.items())
    return keys


class Grid:
    """Immutable sparse grid: a finite map from coordinates to live states.

    Dead cells (state 0) are never stored. Construction accepts either a
    mapping coordinate -> state or a bare iterable of coordinates (state 1).
    Each coordinate must unpack to exactly two integers (``int``, ``bool``
    or any type with ``__index__``, such as numpy integers); anything else
    raises ValueError naming it.
    """

    # A packed grid has ``_packed`` set and ``_cells`` None until first read.
    __slots__ = ("topology", "_cells", "_packed")

    def __init__(
        self,
        cells: Mapping[Coordinate, int] | Iterable[Coordinate] | None = None,
        topology: Topology = Topology.SQUARE,
    ):
        self.topology = topology
        store: dict[Coordinate, int] = {}
        if cells is not None:
            items: Iterable[tuple[Coordinate, int]]
            if isinstance(cells, Mapping):
                items = cells.items()
            else:
                items = ((c, 1) for c in cells)
            for coord, state in items:
                if not isinstance(state, int) or state < 0:
                    raise ValueError(f"cell state must be a non-negative int, got {state!r}")
                try:
                    x, y = coord
                    key = (index(x), index(y))
                except (TypeError, ValueError):
                    raise ValueError(
                        f"a coordinate must be a pair of ints, got {coord!r}") from None
                if state != 0:
                    store[key] = state
        self._cells: dict[Coordinate, int] | None = store
        self._packed: _Packed | None = None

    @classmethod
    def _trusted(cls, store: dict[Coordinate, int] | _Packed, topology: Topology) -> "Grid":
        """Wrap library output without re-validating it. ``store`` is either a
        dict that maps int coordinate pairs to positive int states, which
        the new grid takes ownership of, or a packed layout whose set bits
        are cells of state 1. Input from outside the library goes through
        ``Grid(...)``, which checks every cell."""
        grid = cls.__new__(cls)
        grid.topology = topology
        if isinstance(store, tuple):
            grid._cells, grid._packed = None, store
        else:
            grid._cells, grid._packed = store, None
        return grid

    @property
    def cells(self) -> Mapping[Coordinate, int]:
        if self._cells is None:
            self._cells = dict.fromkeys(_decode(*self._packed), 1)
        return self._cells

    @property
    def population(self) -> int:
        if self._packed is not None:
            return self._packed[0].bit_count()
        return len(self._cells)

    def state(self, coord: Coordinate) -> int:
        return self.cells.get(coord, 0)

    def __contains__(self, coord: Coordinate) -> bool:
        return coord in self.cells

    def __iter__(self) -> Iterator[Coordinate]:
        return iter(self.cells)

    def __len__(self) -> int:
        return self.population

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.topology is other.topology and self.cells == other.cells

    def __hash__(self) -> int:
        return hash((self.topology, frozenset(self.cells.items())))

    def __repr__(self) -> str:
        return f"Grid({self.cells!r}, topology={self.topology})"

    def bounding_box(self) -> tuple[Coordinate, Coordinate] | None:
        """((min_x, min_y), (max_x, max_y)) of the live cells; None if empty."""
        if self._packed is None:
            return _box(self._cells)
        bits, stride, _, ox, oy = self._packed
        if not bits:
            return None
        top, bottom, first, last = _extent(bits, stride)
        return (ox + first, oy + top), (ox + last, oy + bottom)

    def translate(self, d: Coordinate) -> "Grid":
        """Shift every live cell by ``d``, preserving states."""
        dx, dy = d
        if dx == 0 and dy == 0:
            return self
        return Grid._trusted(
            {(x + dx, y + dy): s for (x, y), s in self.cells.items()}, self.topology
        )

    def canonicalize(self) -> "Grid":
        """Translate so the bounding box's minimum corner sits at the origin."""
        box = self.bounding_box()
        if box is None:
            return self
        (min_x, min_y), _ = box
        return self.translate((-min_x, -min_y))


def coarse_grain(grid: Grid, scale: int, rule: str = "any") -> Grid:
    """Collapse scale x scale blocks (anchored at the origin) to single cells.

    rule "any": a coarse cell is live iff any member is live.
    rule "majority": live iff live members outnumber dead ones; ties dead.
    """
    if grid.topology is not Topology.SQUARE:
        raise ValueError("coarse graining is defined for square grids only")
    scale = as_integer("scale", scale, 1)
    if rule not in ("any", "majority"):
        raise ValueError(f"unknown coarse-graining rule: {rule!r}")
    if scale == 1:
        return grid
    if rule == "any":
        blocks = {(x // scale, y // scale): 1 for (x, y) in grid.cells}
        return Grid._trusted(blocks, Topology.SQUARE)
    counts: dict[tuple[int, int], int] = {}
    for (x, y) in grid.cells:
        key = (x // scale, y // scale)
        counts[key] = counts.get(key, 0) + 1
    half = scale * scale / 2
    blocks = {block: 1 for block, n in counts.items() if n > half}
    return Grid._trusted(blocks, Topology.SQUARE)
