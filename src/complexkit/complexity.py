"""Information-theoretic complexity measurement.

The amount of information needed to identify a system's state is
log2 of the number of distinct states observed. Coarse-graining maps
blocks of fine cells to single coarse cells, realizing larger scales of
observation; the resulting bits-vs-scale profile never increases along
a chain of nested scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .grid import Grid, Topology


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


def complexity_profile(history: Iterable[Grid], scales: Sequence[int]) -> ComplexityProfile:
    """Measure observed-state information for a history at each scale.

    States are compared at a fixed anchoring (the observer's frame does not
    follow the pattern around). Scales must be an ascending divisibility
    chain (each a multiple of the previous, e.g. 1, 2, 4, 8) so that coarse
    blocks nest and the bits sequence is non-increasing by construction.
    The history is read once, so it may be an iterator such as ``run(...)``.
    """
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

    seen: list[set[Grid]] = [set() for _ in scales]
    sample_size = 0
    for g in history:
        sample_size += 1
        coarse, finer = g, 1
        for s, states in zip(scales, seen):
            # "any" blocks nest, so each scale coarse-grains the previous one.
            coarse, finer = coarse_grain(coarse, s // finer), s
            states.add(coarse)
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
