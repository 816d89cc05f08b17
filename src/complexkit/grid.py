"""Sparse unbounded lattices (square Moore and hexagonal axial).

A grid stores only its non-dead cells in a coordinate -> state map, so the
lattice itself has no edges. Square coordinates are (x, y) cell offsets;
hexagonal coordinates are axial (q, r) pairs on a honeycomb.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Mapping

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


class Grid:
    """Immutable sparse grid: a finite map from coordinates to live states.

    Dead cells (state 0) are never stored. Construction accepts either a
    mapping coordinate -> state or a bare iterable of coordinates (state 1).
    """

    __slots__ = ("topology", "_cells", "_hash")

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
                if state != 0:
                    store[(int(coord[0]), int(coord[1]))] = state
        self._cells = store
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, store: dict[Coordinate, int], topology: Topology) -> "Grid":
        """Wrap engine output without re-validating it: ``store`` must map
        int coordinate pairs to positive int states, and the new grid takes
        ownership of it. Input from outside the library goes through
        ``Grid(...)``, which checks every cell."""
        grid = cls.__new__(cls)
        grid.topology = topology
        grid._cells = store
        grid._hash = None
        return grid

    @property
    def cells(self) -> Mapping[Coordinate, int]:
        return self._cells

    @property
    def population(self) -> int:
        return len(self._cells)

    def state(self, coord: Coordinate) -> int:
        return self._cells.get(coord, 0)

    def __contains__(self, coord: Coordinate) -> bool:
        return coord in self._cells

    def __iter__(self) -> Iterator[Coordinate]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.topology is other.topology and self._cells == other._cells

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.topology, frozenset(self._cells.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Grid({self._cells!r}, topology={self.topology})"

    def bounding_box(self) -> tuple[Coordinate, Coordinate] | None:
        """((min_x, min_y), (max_x, max_y)) of the live cells; None if empty."""
        if not self._cells:
            return None
        xs = [c[0] for c in self._cells]
        ys = [c[1] for c in self._cells]
        return (min(xs), min(ys)), (max(xs), max(ys))

    def translate(self, d: Coordinate) -> "Grid":
        """Shift every live cell by ``d``, preserving states."""
        dx, dy = d
        if dx == 0 and dy == 0:
            return self
        return Grid._trusted(
            {(x + dx, y + dy): s for (x, y), s in self._cells.items()}, self.topology
        )

    def canonicalize(self) -> "Grid":
        """Translate so the bounding box's minimum corner sits at the origin."""
        box = self.bounding_box()
        if box is None:
            return self
        (min_x, min_y), _ = box
        return self.translate((-min_x, -min_y))
