"""Sparse unbounded lattices (square Moore and hexagonal axial).

A grid holds only its non-dead cells, so the lattice itself has no edges.
It keeps them in a coordinate -> state map, or, for a two-state generation
that the automaton stepped as bits, as a packed layout: the map is then
decoded on first read, and the population and truthiness come from the
bit count without a decode. Square coordinates are (x, y) cell offsets;
hexagonal coordinates are axial (q, r) pairs on a honeycomb. ``Grid``
takes each coordinate as exactly two integers (``operator.index``), so a
float, a string or a longer tuple is refused, not truncated.

This module owns the packed layout: ``_pack`` builds it, ``_decode``
reads it, ``_ring`` masks its edge cells and ``_align`` lays it out again
on absolute byte columns. The automaton only steps the bits and decides
when to re-pack. ``_key`` and ``_packed_key`` give a cell set a hashable
key that does not depend on how the set is held, and ``_state_keys``
gives the complexity census a grid's key at each of its scales, reading a
packed grid's layout without decoding it. ``coarse_grain`` maps a square
grid to the grid of its blocks at one scale (``cas.observe`` uses it).
"""

from __future__ import annotations

import enum
import math
from operator import index
from typing import Collection, Hashable, Iterable, Iterator, Mapping, Sequence

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


def _align(packed: _Packed, unit: int) -> _Packed:
    """The cells of ``packed`` laid out again with the origin and the stride
    multiples of ``unit``, itself a multiple of 8."""
    bits, stride, height, ox, oy = packed
    left, top = ox % unit, oy % unit
    width = -(-(stride + left) // unit) * unit
    if width != stride:
        # Copy each byte column to its place in the wider rows, ``left // 8``
        # bytes on, then shift the rest of ``left``: the bytes after each
        # row take the carry, so no cell on the last column wraps into the
        # next row.
        old_bytes, new_bytes, lead = stride // 8, width // 8, left // 8
        data = bits.to_bytes(old_bytes * height, "little")
        out = bytearray(new_bytes * height)
        for k in range(old_bytes):
            out[lead + k :: new_bytes] = data[k::old_bytes]
        bits = int.from_bytes(out, "little") << (left & 7)
    return bits << top * width, width, height + top, ox - left, oy - top


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
    """``_key`` of the cells of ``packed``, a layout from ``_align`` whose
    cells all sit on rows ``scale`` apart from absolute row 0, read off its
    bits without a decode."""
    bits, stride, height, ox, oy = packed
    if not bits:
        return None
    top = ((bits & -bits).bit_length() - 1) // stride
    span = (bits.bit_length() - 1) // stride - top + 1
    bits >>= top * stride
    # OR every row into row 0 to find the columns in use.
    rows, folded = 1, bits
    while rows < span:
        folded |= folded >> rows * stride
        rows *= 2
    used = folded & ((1 << stride) - 1)
    first, last = ((used & -used).bit_length() - 1) // 8, (used.bit_length() - 1) // 8
    width = last - first + 1
    if width * ((span - 1) // scale + 1) > _KEY_BYTES * bits.bit_count():
        return frozenset(_decode(*packed))
    row_bytes = stride // 8
    data = bits.to_bytes(span * row_bytes, "little")
    columns = (data[j :: row_bytes * scale] for j in range(first, last + 1))
    return ox + 8 * first, oy + top, width, b"".join(columns)


def _anchor_mask(stride: int, height: int, scale: int) -> int:
    """The cells at multiples of ``scale`` of a layout from ``_align``
    whose unit ``scale`` divides."""
    period = math.lcm(8, scale)
    pattern = sum(1 << x for x in range(0, period, scale)).to_bytes(period // 8, "little")
    row_bytes = stride // 8
    rows = (pattern * (stride // period) + bytes(row_bytes * (scale - 1))) * -(-height // scale)
    return int.from_bytes(rows[: row_bytes * height], "little")


def _any_blocks(bits: int, stride: int, height: int, finer: int, scale: int) -> int:
    """The live "any" blocks at ``scale``, each on its top-left cell, of
    ``bits``: a layout from ``_align`` whose unit ``scale`` divides,
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
    grid is coarse-grained on its layout: ``_align`` lays the bits out
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
    fit = [] if packed is None else [
        s for s in scales if math.lcm(8, s) <= min(packed[1], packed[2])]
    if fit:
        bits, stride, height, ox, oy = _align(packed, math.lcm(8, fit[-1]))
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
        """Wrap engine output without re-validating it. ``store`` is either a
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
        return _box(self.cells)

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
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
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
