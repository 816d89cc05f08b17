"""Generalized cellular-automaton engine: rules, synchronous stepping,
streamed runs, and pattern classification.

Rules are count-based birth/survival sets over the grid topology's
neighborhood, with an optional number of live "colors" (states >= 2).
The update is synchronous: generation t+1 is a pure function of
generation t. ``run`` returns an iterator of generations; keep a whole
history with ``history = list(run(grid, rule, n))``.

Whether a cell lives never depends on its color, so both engines step
bare coordinates and each new generation is colored once afterwards:
survivors keep their color and newborns take the majority color of their
neighbors. Density picks the engine, generation by generation, from that
generation alone. A generation that packs (see ``_SPARSE``) steps on a
bit-parallel board (one Python int, neighbor counts summed by bit-sliced
adders, the technique of Golly's engines); a sparser one steps on the
coordinate set, whose cost follows the population and whose memory stays
bounded however far apart its cells are. Both engines read each
neighborhood from the grid's ``Topology``, so square and hex share one
code path.

The packed layout belongs to ``grid``: ``grid._pack`` builds it from
coordinates, ``grid._relayout`` re-packs it on the bits and ``grid._ring``
masks its edge cells. This module steps the bits and decides when to
re-pack. A two-state generation stepped on the board is yielded as a
``Grid`` over the immutable packed tuple that the next step reads, and
decodes its cells only when a caller first reads them, so a caller that
reads only ``population`` pays for no decode. A packed generation 0, as
the codecs decode a two-state pattern, is re-packed on its bits too. The
engine itself decodes a two-state generation only to hand it to the set
engine, and a coloured run's board bits only to colour them.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Collection, Iterator

from ._shared import _Record, as_integer
from .grid import _SPARSE, Coordinate, Grid, Topology, _decode, _layout, _pack, _relayout, _ring


class RuleError(ValueError):
    """Invalid or unsupported rule set."""


_RULE_RE = re.compile(r"^B(\d*)/S(\d*)$")


class RuleSet(_Record):
    """Birth/survival neighbor-count rule with ``states`` cell states.

    ``states`` counts the dead state, so states=2 is a classic two-state
    rule; Conway Life is B3/S23 with states=2.
    """

    _fields = ("birth", "survival", "states")

    def __init__(self, birth: Collection[int], survival: Collection[int], states: int = 2):
        birth, survival = frozenset(birth), frozenset(survival)
        try:
            as_integer("states", states, 2)
        except ValueError as e:
            raise RuleError(str(e)) from None
        for count in birth | survival:
            if not isinstance(count, int) or count < 0:
                raise RuleError(f"neighbor counts must be non-negative ints, got {count!r}")
        if 0 in birth:
            # Birth on zero neighbors would light up the whole unbounded lattice.
            raise RuleError("rules with 0 in the birth set are not supported")
        self.__dict__.update(birth=birth, survival=survival, states=states)

    @classmethod
    def parse(cls, text: str, states: int = 2) -> "RuleSet":
        """Parse a rule string like ``B3/S23``."""
        m = _RULE_RE.match(text.strip())
        if m is None:
            raise RuleError(f"malformed rule string: {text!r}")
        birth = frozenset(int(ch) for ch in m.group(1))
        survival = frozenset(int(ch) for ch in m.group(2))
        return cls(birth=birth, survival=survival, states=states)

    def __str__(self) -> str:
        b = "".join(str(n) for n in sorted(self.birth))
        s = "".join(str(n) for n in sorted(self.survival))
        return f"B{b}/S{s}"


CONWAY_LIFE = RuleSet(birth=frozenset({3}), survival=frozenset({2, 3}))


class PatternClass(_Record):
    """Classification of a pattern's long-run behavior.

    kind is one of "still-life", "oscillator", "spaceship", "unresolved".
    period is set for oscillators and spaceships; displacement only for
    spaceships and is never (0, 0).
    """

    _fields = ("kind", "period", "displacement")

    def __init__(self, kind: str, period: int | None = None,
                 displacement: Coordinate | None = None):
        self.__dict__.update(kind=kind, period=period, displacement=displacement)

    def __str__(self) -> str:
        if self.kind == "oscillator":
            return f"oscillator p={self.period}"
        if self.kind == "spaceship":
            dx, dy = self.displacement
            return f"spaceship p={self.period} d=({dx},{dy})"
        return self.kind


def _validate_rule(rule: RuleSet, topology: Topology) -> None:
    degree = topology.degree
    for count in rule.birth | rule.survival:
        if count > degree:
            raise RuleError(
                f"neighbor count {count} exceeds {topology.value} degree {degree}"
            )


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


def _set_step(live: Collection[Coordinate], rule: RuleSet, offsets) -> set[Coordinate]:
    """One generation of the sparse engine: the live cells after ``live``.

    Only live cells and their neighbors are candidates; with 0 excluded
    from the birth set (enforced by RuleSet) no other cell can change.
    """
    counts = Counter((x + dx, y + dy) for (x, y) in live for dx, dy in offsets)
    birth, survival = rule.birth, rule.survival
    nxt = {c for c, n in counts.items() if n in (survival if c in live else birth)}
    if 0 in survival:
        # Isolated live cells never appear in the neighbor-count map.
        nxt.update(c for c in live if c not in counts)
    return nxt


# Empty border, in cells, that a re-pack leaves around the live cells: a
# wider one re-packs less often but makes every step work on more bits.
_MARGIN = 8


def _board_step(bits: int, stride: int, offsets, rule: RuleSet) -> int:
    """The live cells one generation after ``bits``, a packed layout
    ``stride`` columns wide (see ``grid._pack``).

    The layout's ring must be empty: a live cell on it would carry across
    a row end, or below row 0, when the neighbor planes are shifted. Births
    may land on the ring, so the caller re-packs before the next step.
    """
    # Bit-sliced 4-bit neighbor count (n3 n2 n1 n0), one ripple add per
    # plane. The neighbor at offset (dx, dy) sits k = dx + dy * stride
    # bits on, so its plane is the layout shifted right by k bits (left
    # by -k when k < 0).
    n0 = n1 = n2 = n3 = 0
    for dx, dy in offsets:
        k = dx + dy * stride
        plane = bits >> k if k > 0 else bits << -k
        c0 = n0 & plane
        n0 ^= plane
        c1 = n1 & c0
        n1 ^= c0
        n3 |= n2 & c1
        n2 ^= c1

    def count_is(c: int) -> int:
        if c == 8:
            return n3
        if c == 0:
            return ~(n0 | n1 | n2 | n3)
        # A count of 8 has low bits 000, so it never matches 1..7.
        return (n0 if c & 1 else ~n0) & (n1 if c & 2 else ~n1) & (n2 if c & 4 else ~n2)

    born = survive = 0
    for c in rule.birth:
        born |= count_is(c)
    for c in rule.survival:
        survive |= count_is(c)
    return (born & ~bits) | (survive & bits)


def step(grid: Grid, rule: RuleSet = CONWAY_LIFE) -> Grid:
    """Advance one generation synchronously: generation 1 of ``run``.

    Survivors keep their color.
    """
    _, nxt = run(grid, rule, 1)
    return nxt


def run(grid: Grid, rule: RuleSet = CONWAY_LIFE, generations: int = 0) -> Iterator[Grid]:
    """Yield generations 0 (``grid`` itself) through ``generations``.

    Each generation is computed when the iterator reaches it, so a caller
    that needs the whole history keeps it with ``list(run(...))``. The
    rule is checked against the topology here, for any ``generations``.
    """
    generations = as_integer("generation count", generations, 0)
    _validate_rule(rule, grid.topology)
    return _generations(grid, rule, generations)


def _generations(grid: Grid, rule: RuleSet, generations: int) -> Iterator[Grid]:
    yield grid
    topology = grid.topology
    offsets = topology.offsets
    # Newborns of an all-1 grid have only neighbors of color 1; a packed
    # grid is all 1.
    packed = _layout(grid)
    colorless = packed is not None or set(grid.cells.values()) <= {1}
    prev, ring = grid, -1  # re-pack generation 0's layout for its margin
    for _ in range(generations):
        # Re-pack when a cell has reached the ring, on the bits, or when
        # there is no layout, from the coordinates. A generation too sparse
        # to pack steps on the set, and the next one tries to pack again,
        # so the engine depends on ``prev`` alone. The keys of
        # ``prev.cells`` are its live cells, with O(1) lookup; a packed
        # ``prev`` decodes them only to step on the set.
        if packed is None or packed[0] & ring:
            packed = (_pack(prev.cells, _MARGIN, _SPARSE) if packed is None
                      else _relayout(packed, _MARGIN, _SPARSE))
            if packed is not None:
                ring = _ring(packed[1], packed[2])
        if packed is None:
            store = dict.fromkeys(_set_step(prev.cells, rule, offsets), 1)
        else:
            bits, stride, height, ox, oy = packed
            store = packed = _board_step(bits, stride, offsets, rule), stride, height, ox, oy
        if not colorless:
            # Survivors keep their color; newborns take their neighbors'.
            old = prev.cells
            live = store if packed is None else _decode(*packed)
            store = {c: old.get(c) or _newborn_state(c, old, offsets, rule.states) for c in live}
        prev = Grid._trusted(store, topology)
        yield prev


def classify_pattern(grid: Grid, rule: RuleSet = CONWAY_LIFE, horizon: int = 64) -> PatternClass:
    """Classify a pattern by stepping up to ``horizon`` generations.

    Matches are modulo translation only. A pattern that returns to itself
    after one step is a still life, never a period-1 oscillator.
    """
    horizon = as_integer("horizon", horizon, 1)
    start_canon = grid.canonicalize()
    start_box = grid.bounding_box()
    generations = run(grid, rule, horizon)
    next(generations)  # generation 0 is the pattern itself
    for k, current in enumerate(generations, start=1):
        if current == grid:
            return PatternClass("still-life") if k == 1 else PatternClass("oscillator", k)
        if current.canonicalize() == start_canon:
            # Unequal grids with equal canonical forms differ by a shift.
            cur_box = current.bounding_box()
            d = (cur_box[0][0] - start_box[0][0], cur_box[0][1] - start_box[0][1])
            return PatternClass(kind="spaceship", period=k, displacement=d)
    return PatternClass(kind="unresolved")
