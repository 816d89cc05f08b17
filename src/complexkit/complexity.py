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
from typing import Hashable, Iterable, Sequence

from ._shared import _Record, as_integer
from .grid import Grid, _state_keys
from .grid import coarse_grain  # noqa: F401  bench/tracing.py rebinds complexity.coarse_grain


def info_bits(omega: int) -> float:
    """Bits of information for a system with ``omega`` distinct states."""
    return math.log2(as_integer("state count", omega, 1))


def theoretical_bits(num_cells: int, states: int = 2) -> float:
    """Upper bound in bits for a bounded region: log2(states ** num_cells)."""
    return as_integer("cell count", num_cells, 0) * math.log2(as_integer("state count", states, 1))


class StateCensus(_Record):
    """Distinct-state count from a sample of snapshots at one scale."""

    _fields = ("omega", "sample_size", "scale")

    def __init__(self, omega: int, sample_size: int, scale: int):
        self.__dict__.update(omega=omega, sample_size=sample_size, scale=scale)

    @property
    def bits(self) -> float:
        return info_bits(self.omega)


class ComplexityProfile(_Record):
    """Bits of observed information per observation scale, scales ascending."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[StateCensus, ...]):
        self.__dict__.update(entries=entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def scales(self) -> tuple[int, ...]:
        return tuple(e.scale for e in self.entries)

    @property
    def bits(self) -> tuple[float, ...]:
        return tuple(e.bits for e in self.entries)


def _check_scales(scales: Sequence[int]) -> tuple[int, ...]:
    """``scales`` as ints (through ``_shared.as_integer``); raise
    ValueError unless they are an ascending divisibility chain of positive
    integers."""
    if not scales:
        raise ValueError("need at least one scale")
    chain: list[int] = []
    for s in scales:
        s = as_integer("scale", s, 1)
        if chain and (s <= chain[-1] or s % chain[-1] != 0):
            raise ValueError(
                f"scales must form an ascending divisibility chain, got {chain[-1]} then {s}"
            )
        chain.append(s)
    return tuple(chain)


def complexity_profile(history: Iterable[Grid], scales: Sequence[int]) -> ComplexityProfile:
    """Measure observed-state information for a history at each scale.

    States are compared at a fixed anchoring (the observer's frame does not
    follow the pattern around). Scales must be an ascending divisibility
    chain (each a multiple of the previous, e.g. 1, 2, 4, 8) so that coarse
    blocks nest and the bits sequence is non-increasing by construction.
    The history is read once, so it may be an iterator such as ``run(...)``.
    """
    scales = _check_scales(scales)
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
