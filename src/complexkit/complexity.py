"""Information-theoretic complexity measurement.

The amount of information needed to identify a system's state is
log2 of the number of distinct states observed. Coarse-graining maps
blocks of fine cells to single coarse cells, realizing larger scales of
observation; the resulting bits-vs-scale profile never increases along
a chain of nested scales. This module holds the census only: the public
``coarse_grain`` of one grid lives in ``grid`` and is re-exported here.

Blocks are anchored at absolute (0, 0): the block of cell (x, y) at scale
s is (x // s, y // s), wherever the pattern sits. ``complexity_profile``
coarse-grains a board generation of ``run`` on its packed layout: it lays
the bits out again on absolute columns, ORs shifted copies of them and
keeps every s-th column and row. Each scale starts from the previous
scale's bits. Once lcm(8, scale), the unit that scale aligns the layout
to, exceeds the layout, it coarse-grains the few cells left on their
coordinates. A dict generation is coarse-grained on its coordinates at
every scale, at a cost that follows its population.

Each state is counted by a key that depends only on its cells
(``grid._key``): the bytes of its absolute byte columns, trimmed to its
bounding box, or its coordinates when it is too sparse for that. At
scale 1, a generation with states above 1 is keyed by its cells and
their states, so that colours count as they do in ``Grid`` equality;
coarser scales are two-state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .grid import Grid, Topology, _align, _decode, _key, _packed_key
from .grid import coarse_grain  # noqa: F401  bench/tracing.py rebinds complexity.coarse_grain


def info_bits(omega: int) -> float:
    """Bits of information for a system with ``omega`` distinct states."""
    if omega < 1:
        raise ValueError(f"state count must be >= 1, got {omega}")
    return math.log2(omega)


def theoretical_bits(num_cells: int, states: int = 2) -> float:
    """Upper bound in bits for a bounded region: log2(states ** num_cells)."""
    if num_cells < 0 or states < 1:
        raise ValueError("need num_cells >= 0 and states >= 1")
    return num_cells * math.log2(states)


@dataclass(frozen=True)
class StateCensus:
    """Distinct-state count from a sample of snapshots at one scale."""

    omega: int
    sample_size: int
    scale: int

    @property
    def bits(self) -> float:
        return info_bits(self.omega)


@dataclass(frozen=True)
class ComplexityProfile:
    """Bits of observed information per observation scale, scales ascending."""

    entries: tuple[StateCensus, ...]

    def __iter__(self):
        return iter(self.entries)

    @property
    def scales(self) -> tuple[int, ...]:
        return tuple(e.scale for e in self.entries)

    @property
    def bits(self) -> tuple[float, ...]:
        return tuple(e.bits for e in self.entries)


def _check_scales(scales: Sequence[int]) -> None:
    """Raise ValueError unless ``scales`` is an ascending divisibility chain
    of positive scales."""
    if not scales:
        raise ValueError("need at least one scale")
    prev = None
    for s in scales:
        if s < 1:
            raise ValueError(f"scales must be positive, got {s}")
        if prev is not None and (s <= prev or s % prev != 0):
            raise ValueError(
                f"scales must form an ascending divisibility chain, got {prev} then {s}"
            )
        prev = s


def _anchor_mask(stride: int, height: int, scale: int) -> int:
    """The cells at multiples of ``scale`` of a layout from ``grid._align``
    whose unit ``scale`` divides."""
    period = math.lcm(8, scale)
    pattern = sum(1 << x for x in range(0, period, scale)).to_bytes(period // 8, "little")
    row_bytes = stride // 8
    rows = (pattern * (stride // period) + bytes(row_bytes * (scale - 1))) * -(-height // scale)
    return int.from_bytes(rows[: row_bytes * height], "little")


def _any_blocks(bits: int, stride: int, height: int, finer: int, scale: int) -> int:
    """The live "any" blocks at ``scale``, each on its top-left cell, of
    ``bits``: a layout from ``grid._align`` whose unit ``scale`` divides,
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
    """The key of ``grid``'s state at each scale (see the module docstring)."""
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


def complexity_profile(history: Iterable[Grid], scales: Sequence[int]) -> ComplexityProfile:
    """Measure observed-state information for a history at each scale.

    States are compared at a fixed anchoring (the observer's frame does not
    follow the pattern around). Scales must be an ascending divisibility
    chain (each a multiple of the previous, e.g. 1, 2, 4, 8) so that coarse
    blocks nest and the bits sequence is non-increasing by construction.
    The history is read once, so it may be an iterator such as ``run(...)``.
    """
    _check_scales(scales)
    seen: list[set[Hashable]] = [set() for _ in scales]
    sample_size = 0
    for g in history:
        sample_size += 1
        for states, key in zip(seen, _state_keys(g, scales)):
            states.add(key)
    if not sample_size:
        raise ValueError("history must be non-empty")
    profile = ComplexityProfile(entries=tuple(
        StateCensus(omega=len(states), sample_size=sample_size, scale=s)
        for s, states in zip(scales, seen)
    ))
    bits = profile.bits
    for a, b in zip(bits, bits[1:]):
        if b > a + 1e-12:
            raise AssertionError("complexity profile increased with scale")
    return profile
