"""Pattern codecs: run-length-encoded (RLE) and plaintext formats.

Both codecs are square-lattice only and byte-exact: encoding a canonical
grid always produces the same bytes, and decode(encode(g)) recovers the
canonicalized grid. RLE carries an optional rule in its header; colors
1..24 use the letters A..X (color 1 is written as ``o``).

A decoder collects the runs of live cells and ``grid._from_runs`` builds
the grid: packed, one int per row, for a two-state pattern whose box is
dense enough, and a coordinate map for a coloured or a sparse one. An
encoder reads a packed grid's rows off its layout (``grid._row_runs``)
and sorts the cells of any other, so a two-state run goes from RLE in to
RLE out without a coordinate map.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import itemgetter
from typing import Iterator

from .automaton import CONWAY_LIFE, RuleSet
from .grid import Grid, Topology, _from_runs, _layout, _row_runs


class PatternFormatError(ValueError):
    """Malformed pattern text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnsupportedFormatError(ValueError):
    """Grid cannot be represented in the requested format."""


_PLAINTEXT_OTHER = re.compile(r"[^.O]")
_PLAINTEXT_LIVE = re.compile(r"O+")

_HEADER_RE = re.compile(
    r"^x\s*=\s*(\d+)\s*,\s*y\s*=\s*(\d+)(?:\s*,\s*rule\s*=\s*(\S+))?\s*$"
)


def _decode_rle(text: str) -> tuple[Grid, RuleSet | None]:
    lines = text.split("\n")
    rule: RuleSet | None = None
    body_start = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        m = _HEADER_RE.match(stripped)
        if m:
            if m.group(3):
                try:
                    rule = RuleSet.parse(m.group(3))
                except ValueError as exc:
                    raise PatternFormatError(str(exc), i + 1, 1) from None
            body_start = i + 1
        else:
            body_start = i  # headerless body
        break
    else:
        raise PatternFormatError("missing '!' terminator", len(lines), 1)

    runs: list[int] = []  # y, x, length and state of each live run
    x = y = 0
    count = 0
    have_count = False
    for li in range(body_start, len(lines)):
        for ci, ch in enumerate(lines[li]):
            col = ci + 1
            if ch.isspace():
                if have_count:
                    raise PatternFormatError("run count split by whitespace", li + 1, col)
                continue
            if ch.isdigit():
                count = count * 10 + int(ch)
                have_count = True
                continue
            n = count if have_count else 1
            if have_count and count == 0:
                raise PatternFormatError("run count must be positive", li + 1, col)
            count = 0
            have_count = False
            if ch == "b":
                x += n
            elif ch == "o" or "A" <= ch <= "X":
                runs += y, x, n, 1 if ch == "o" else ord(ch) - ord("A") + 1
                x += n
            elif ch == "$":
                y += n
                x = 0
            elif ch == "!":
                return _from_runs(runs), rule
            else:
                raise PatternFormatError(f"unknown symbol {ch!r}", li + 1, col)
    raise PatternFormatError("missing '!' terminator", len(lines), 1)


def _rle_symbol(state: int) -> str:
    if state == 0:
        return "b"
    if state == 1:
        return "o"
    if state <= 24:
        return chr(ord("A") + state - 1)
    raise UnsupportedFormatError(f"RLE supports at most 24 colors, got state {state}")


def _count(n: int) -> str:
    """An RLE run count: omitted when it is 1."""
    return "" if n == 1 else str(n)


def _rows(grid: Grid, min_x: int, min_y: int) -> Iterator[tuple[int, list[list[int]]]]:
    """Each row that holds a live cell, top to bottom: its y and its [state,
    length] runs from x = 0 (dead gaps are state 0), relative to (min_x,
    min_y). A packed grid's rows are read off its layout (``_row_runs``);
    the live cells of any other are sorted once, so that the cost follows
    the population, not the box."""
    packed = _layout(grid)
    if packed is not None:
        yield from _row_runs(packed, min_x, min_y)
        return
    cells = sorted((y - min_y, x - min_x, s) for (x, y), s in grid.cells.items())
    for y, row in groupby(cells, key=itemgetter(0)):
        runs, end = [], 0
        for _, x, state in row:
            if x > end:
                runs.append([0, x - end])
            if runs and runs[-1][0] == state:
                runs[-1][1] += 1
            else:
                runs.append([state, 1])
            end = x + 1
        yield y, runs


def _encode_rle(grid: Grid, rule: RuleSet | None) -> str:
    rule_str = str(rule) if rule is not None else str(CONWAY_LIFE)
    box = grid.bounding_box()
    if box is None:
        return f"x = 0, y = 0, rule = {rule_str}\n!"
    (min_x, min_y), (max_x, max_y) = box
    tokens: list[str] = []
    last_y = 0
    for y, runs in _rows(grid, min_x, min_y):
        if y > last_y:
            tokens.append(_count(y - last_y) + "$")
        tokens.extend(_count(n) + _rle_symbol(state) for state, n in runs)
        last_y = y
    return (f"x = {max_x - min_x + 1}, y = {max_y - min_y + 1}, rule = {rule_str}\n"
            + "".join(tokens) + "!")


def _decode_plaintext(text: str) -> tuple[Grid, RuleSet | None]:
    runs: list[int] = []  # as in _decode_rle
    y = 0
    for li, line in enumerate(text.split("\n")):
        if line.startswith("!"):
            continue
        if line.strip() == "" and y == 0:
            continue
        line = line.rstrip("\r")
        bad = _PLAINTEXT_OTHER.search(line)
        if bad:
            raise PatternFormatError(f"unknown symbol {bad.group()!r}", li + 1, bad.start() + 1)
        for live in _PLAINTEXT_LIVE.finditer(line):
            runs += y, live.start(), live.end() - live.start(), 1
        y += 1
    return _from_runs(runs), None


def _encode_plaintext(grid: Grid) -> str:
    box = grid.bounding_box()
    if box is None:
        return ""
    (min_x, min_y), (max_x, max_y) = box
    width = max_x - min_x + 1
    lines = ["." * width] * (max_y - min_y + 1)
    for y, runs in _rows(grid, min_x, min_y):
        if any(state > 1 for state, _ in runs):
            raise UnsupportedFormatError("plaintext cannot represent multi-state cells")
        lines[y] = "".join(("O" if state else ".") * n for state, n in runs).ljust(width, ".")
    return "\n".join(lines) + "\n"


def decode_pattern(text: str, format: str = "rle") -> tuple[Grid, RuleSet | None]:
    """Decode pattern text; the grid is anchored with its top-left at the origin."""
    if format == "rle":
        return _decode_rle(text)
    if format == "plaintext":
        return _decode_plaintext(text)
    raise ValueError(f"unknown pattern format: {format!r}")


def encode_pattern(grid: Grid, format: str = "rle", rule: RuleSet | None = None) -> str:
    """Encode ``canonicalize(grid)`` deterministically in the given format."""
    if grid.topology is not Topology.SQUARE:
        raise UnsupportedFormatError("pattern codecs support square grids only")
    if format == "rle":
        return _encode_rle(grid, rule)
    if format == "plaintext":
        if rule is not None:
            raise ValueError("plaintext format carries no rule")
        return _encode_plaintext(grid)
    raise ValueError(f"unknown pattern format: {format!r}")
