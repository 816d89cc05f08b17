"""Information-theoretic complexity measurement.

The amount of information needed to identify a system's state is
log2 of the number of distinct states observed. Coarse-graining maps
blocks of fine cells to single coarse cells, realizing larger scales of
observation; the resulting bits-vs-scale profile never increases along
a chain of nested scales. Blocks are anchored at absolute (0, 0): the
block of cell (x, y) at scale s is (x // s, y // s), wherever the pattern
sits.

This module holds the census only: it checks the scales, counts the
distinct keys that ``grid._state_keys`` gives each generation at each
scale, and checks that the bits never increase. How a generation is
coarse-grained and keyed, on its packed layout or on its coordinates, is
decided in ``grid``, which owns the layout. The public ``coarse_grain`` of
one grid lives in ``grid`` too and is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .grid import Grid, _state_keys
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
