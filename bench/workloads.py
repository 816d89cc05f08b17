"""Workload definitions: seeded input files, CLI argv, and output checks.

Every workload is one closed-loop CLI command: a single process runs it to
completion. Inputs are generated here from the workload seed and the
round number, so the program sees only the generated files, and a
benchmark run's median spans several inputs rather than one. Outputs are
checked after every run; a failed check counts the run as failed.

The Life workloads' outputs depend only on the rule, so they are checked
bit-exactly against an independent big-int bitboard oracle that
reproduces the exact bytes the CLI writes. The workloads driven by the
program's PRNG (cas-grid, ga-coevolve) and the chaos estimate are checked
by invariants, so a change of random stream does not read as a failure.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LIFE_SOUP = dict(size=100, density=0.35, gens=90)
LIFE_PROFILE = dict(size=80, density=0.35, gens=80, scales=(1, 2, 4, 8))
CAS_GRID = dict(fixed=50, adaptive=50, width=30, height=30, ticks=240)
GA_COEVOLVE = dict(gens=3, pop=100, elite=2)
CHAOS = dict(r=4.0, x0=0.3, steps=300_000, burnin=1000)
# At r=4 the logistic map's derivative sum telescopes, so from x0 = 0.3
# the estimate sits within ~1e-8 of ln 2; the tolerance leaves room for
# rounding drift.
LYAPUNOV_TOLERANCE = 1e-4


class CheckError(Exception):
    """An output failed its check."""


@dataclass
class Prepared:
    """Generated inputs and expectations for one workload at one seed."""

    argv: list[str]  # CLI arguments after the program name
    inputs: dict[str, str]  # input file name -> sha256
    work: float  # units of work one run does (see Workload.work_unit)
    check: Callable[[Path], None]  # raises CheckError on a bad output


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str  # what work_per_s counts for this workload
    rate_metric: tuple[str, str]  # the workload's own headline (name, unit)
    prepare: Callable[[int, int, Path], Prepared]  # (seed, round, input dir)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return _sha(text.encode())


# --- Life: soup generation and the bitboard oracle -------------------------


def soup_cells(rng: random.Random, size: int, density: float) -> list[tuple[int, int]]:
    return [(x, y) for y in range(size) for x in range(size) if rng.random() < density]


def _rle_row(bits: str) -> str:
    """RLE tokens for one row given as '0'/'1' with x=0 first, trailing 0s cut."""
    out = []
    for m in re.finditer(r"1+|0+", bits.rstrip("0")):
        n = len(m.group())
        sym = "o" if m.group()[0] == "1" else "b"
        out.append(sym if n == 1 else f"{n}{sym}")
    return "".join(out)


def _rle_body(rows: dict[int, str], x0: int, y0: int) -> str:
    tokens, prev = [], y0
    for y in sorted(rows):
        if "1" not in rows[y]:
            continue
        gap = y - prev
        if gap:
            tokens.append("$" if gap == 1 else f"{gap}$")
        tokens.append(_rle_row(rows[y][x0:]))
        prev = y
    return "".join(tokens) + "!"


def encode_rle(rows: dict[int, str], rule: str = "B3/S23") -> str:
    """Encode rows {y: bitstring} the way the CLI writes RLE: canonical
    (top-left of the bounding box at the origin), one body line, no
    trailing newline."""
    live = [y for y, b in rows.items() if "1" in b]
    if not live:
        return f"x = 0, y = 0, rule = {rule}\n!"
    min_x = min(rows[y].index("1") for y in live)
    max_x = max(rows[y].rindex("1") for y in live)
    width, height = max_x - min_x + 1, max(live) - min(live) + 1
    return f"x = {width}, y = {height}, rule = {rule}\n" + _rle_body(rows, min_x, min(live))


def soup_rle(cells, size: int) -> str:
    """RLE of a soup in its full size x size box, so the decoded
    coordinates equal the generated ones."""
    rows = {y: ["0"] * size for y in range(size)}
    for x, y in cells:
        rows[y][x] = "1"
    body = _rle_body({y: "".join(r) for y, r in rows.items()}, 0, 0)
    return f"x = {size}, y = {size}, rule = B3/S23\n{body}"


class Board:
    """Conway Life (B3/S23) on one big int: bit y*W + x is cell (x, y).

    The board is padded by a margin of at least gens+1 cells on each side,
    so no live cell reaches an edge within the run and shifts never wrap.
    The margin is a multiple of 64, so coarse blocks of size 1..64 stay
    aligned with the origin of the CLI's coordinates.
    """

    def __init__(self, cells, size: int, gens: int):
        self.margin = -(-(gens + 1) // 64) * 64
        self.w = -(-(size + 2 * self.margin) // 64) * 64
        self.bits = 0
        for x, y in cells:
            self.bits |= 1 << self._index(x, y)

    def _index(self, x: int, y: int) -> int:
        return (y + self.margin) * self.w + x + self.margin

    def step(self) -> None:
        b, w = self.bits, self.w
        shifts = (w + 1, w, w - 1, 1)
        neighbours = [b >> s for s in shifts] + [b << s for s in shifts]
        s0 = s1 = s2 = 0  # three-bit neighbour count; counts of 8 wrap to 0
        for n in neighbours:
            c0 = s0 & n
            s0 ^= n
            c1 = s1 & c0
            s1 ^= c0
            s2 ^= c1
        three = s0 & s1 & ~s2
        two = ~s0 & s1 & ~s2
        self.bits = three | (b & two)

    def rows(self) -> dict[int, str]:
        """Non-empty rows as '0'/'1' strings keyed by CLI y coordinate;
        string index x is CLI column x - margin."""
        nbytes = self.w // 8
        raw = self.bits.to_bytes((self.bits.bit_length() + 7) // 8 + nbytes, "little")
        out = {}
        for r in range(len(raw) // nbytes):
            chunk = int.from_bytes(raw[r * nbytes : (r + 1) * nbytes], "little")
            if chunk:
                out[r - self.margin] = format(chunk, f"0{self.w}b")[::-1]
        return out

    def coarse(self, scale: int) -> int:
        """Canonical int of the scale x scale "any" coarse-graining."""
        if scale == 1:
            return self.bits
        b, w = self.bits, self.w
        h = b
        for k in range(1, scale):
            h |= b >> k
        h &= self._column_mask(scale)
        v = h
        for k in range(1, scale):
            v |= h >> (k * w)
        return v & self._row_mask(scale)

    def _column_mask(self, scale: int) -> int:
        row = sum(1 << x for x in range(0, self.w, scale))
        return int.from_bytes(row.to_bytes(self.w // 8, "little") * self.w, "little")

    def _row_mask(self, scale: int) -> int:
        full, blank = b"\xff" * (self.w // 8), b"\x00" * (self.w // 8)
        rows = [full if y % scale == 0 else blank for y in range(self.w)]
        return int.from_bytes(b"".join(rows), "little")


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _expect_bytes(path: Path, expected_sha: str, what: str) -> None:
    try:
        got = _sha(path.read_bytes())
    except OSError as exc:
        raise CheckError(f"{what}: {exc}") from None
    if got != expected_sha:
        raise CheckError(f"{what}: sha256 {got[:12]} != expected {expected_sha[:12]}")


def _prepare_life_soup(seed: int, index: int, work: Path) -> Prepared:
    p = LIFE_SOUP
    cells = soup_cells(_rng("life-soup", seed, index), p["size"], p["density"])
    pattern = work / "soup.rle"
    inputs = {"soup.rle": _write(pattern, soup_rle(cells, p["size"]))}
    board = Board(cells, p["size"], p["gens"])
    pops = []
    for _ in range(p["gens"]):
        pops.append(board.bits.bit_count())
        board.step()
    pops.append(board.bits.bit_count())
    rle_sha = _sha(encode_rle(board.rows()).encode())
    csv_sha = _sha(
        _csv_text([["generation", "population"]] + [[i, n] for i, n in enumerate(pops)]).encode()
    )

    def check(out: Path) -> None:
        _expect_bytes(out / "final.rle", rle_sha, "final.rle")
        _expect_bytes(out / "population.csv", csv_sha, "population.csv")

    argv = [
        "life", "run", "--pattern", str(pattern), "--gens", str(p["gens"]),
        "--seed", str(seed), "--out", "{out}/final.rle", "--metrics", "{out}/population.csv",
    ]
    return Prepared(argv, inputs, float(sum(pops[:-1])), check)


def _prepare_life_profile(seed: int, index: int, work: Path) -> Prepared:
    p = LIFE_PROFILE
    cells = soup_cells(_rng("life-profile", seed, index), p["size"], p["density"])
    pattern = work / "profile.rle"
    inputs = {"profile.rle": _write(pattern, soup_rle(cells, p["size"]))}
    board = Board(cells, p["size"], p["gens"])
    seen = {s: set() for s in p["scales"]}
    cell_gens = 0
    for g in range(p["gens"] + 1):
        if g:
            board.step()
        if g < p["gens"]:
            cell_gens += board.bits.bit_count()
        for s in p["scales"]:
            seen[s].add(board.coarse(s))
    rows = [["scale", "omega", "bits"]]
    rows += [[s, len(seen[s]), math.log2(len(seen[s]))] for s in p["scales"]]
    csv_sha = _sha(_csv_text(rows).encode())

    def check(out: Path) -> None:
        _expect_bytes(out / "profile.csv", csv_sha, "profile.csv")

    argv = [
        "complexity", "profile", "--pattern", str(pattern), "--gens", str(p["gens"]),
        "--scales", ",".join(map(str, p["scales"])), "--seed", str(seed),
        "--metrics", "{out}/profile.csv",
    ]
    return Prepared(argv, inputs, float(cell_gens), check)


# --- PRNG-driven workloads: checked by invariants ---------------------------


def _read_rows(path: Path, header: list[str]) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    if not rows or rows[0] != header:
        raise CheckError(f"{path.name}: header {rows[:1]} != {header}")
    return rows[1:]


def _floats(path: Path, row: list[str], n: int) -> list[float]:
    if len(row) != n:
        raise CheckError(f"{path.name}: row {row} has {len(row)} fields, expected {n}")
    try:
        return [float(v) for v in row]
    except ValueError:
        raise CheckError(f"{path.name}: non-numeric row {row}") from None


def check_cas(path: Path, ticks: int, agents: int) -> None:
    rows = _read_rows(path, ["tick", "agents", "mean_response", "mean_reward"])
    if len(rows) != ticks:
        raise CheckError(f"{path.name}: {len(rows)} rows, expected {ticks}")
    for t, row in enumerate(rows, start=1):
        tick, n, response, _ = _floats(path, row, 4)
        if tick != t or n != agents:
            raise CheckError(f"{path.name}: row {row}, expected tick {t} with {agents} agents")
        if not 0.5 <= response <= 2.0:
            raise CheckError(f"{path.name}: row {row} has a response outside [0.5, 2.0]")


def check_ga(path: Path, gens: int) -> None:
    rows = _read_rows(path, ["generation", "best", "mean"])
    if len(rows) != gens + 1:
        raise CheckError(f"{path.name}: {len(rows)} rows, expected {gens + 1}")
    prev_best = -math.inf
    for g, row in enumerate(rows):
        gen, best, mean = _floats(path, row, 3)
        if gen != g:
            raise CheckError(f"{path.name}: row {row}, expected generation {g}")
        if not (0.25 <= mean <= best <= 2.0):
            raise CheckError(f"{path.name}: row {row} has a fitness outside [0.25, 2.0]")
        if best < prev_best:
            raise CheckError(f"{path.name}: best fell from {prev_best} at generation {g}")
        prev_best = best


def check_lyapunov(path: Path, x0: float) -> None:
    rows = _read_rows(path, ["map", "r", "x0", "steps", "burnin", "lyapunov"])
    if len(rows) != 1 or len(rows[0]) != 6:
        raise CheckError(f"{path.name}: expected one row of 6 fields, got {rows}")
    expected = ["logistic", repr(CHAOS["r"]), repr(x0), str(CHAOS["steps"]), str(CHAOS["burnin"])]
    if rows[0][:5] != expected:
        raise CheckError(f"{path.name}: row {rows[0][:5]} does not echo the input {expected}")
    lam = _floats(path, rows[0][5:], 1)[0]
    if abs(lam - math.log(2)) > LYAPUNOV_TOLERANCE:
        raise CheckError(f"{path.name}: lyapunov {lam!r} is not within {LYAPUNOV_TOLERANCE} of ln 2")


def _prepare_cas_grid(seed: int, index: int, work: Path) -> Prepared:
    p = CAS_GRID
    scenario = {
        "seed": _rng("cas-grid", seed, index).randrange(2**31),
        "ticks": p["ticks"],
        "stimulus": 1.0,
        "grid": {"width": p["width"], "height": p["height"]},
        "agent_types": [
            {"name": "drone", "count": p["fixed"], "strategy": "fixed",
             "rule": {"kind": "linear", "gain": 1.0}},
            {"name": "learner", "count": p["adaptive"], "strategy": "adaptive",
             "rules": [{"kind": "linear", "gain": 0.5}, {"kind": "linear", "gain": 2.0}],
             "weights": [1, 1]},
        ],
    }
    path = work / "scenario.json"
    inputs = {"scenario.json": _write(path, json.dumps(scenario, indent=1))}
    agents = p["fixed"] + p["adaptive"]
    argv = ["cas", "run", "--config", str(path), "--metrics", "{out}/cas.csv"]
    return Prepared(
        argv, inputs, float(p["ticks"]),
        lambda out: check_cas(out / "cas.csv", p["ticks"], agents),
    )


def _prepare_ga_coevolve(seed: int, index: int, work: Path) -> Prepared:
    p = GA_COEVOLVE
    config = {"seed": _rng("ga-coevolve", seed, index).randrange(2**31), "problem": "coevolve",
              "gens": p["gens"], "pop": p["pop"], "elite": p["elite"]}
    path = work / "ga.json"
    inputs = {"ga.json": _write(path, json.dumps(config, indent=1))}
    argv = ["ga", "run", "--config", str(path), "--metrics", "{out}/ga.csv"]
    return Prepared(
        argv, inputs, float(p["gens"]),
        lambda out: check_ga(out / "ga.csv", p["gens"]),
    )


def _prepare_chaos(seed: int, index: int, work: Path) -> Prepared:
    # x0 stays fixed: from some starting points the double-precision orbit
    # falls onto a cycle whose exponent is not ln 2 (x0 = 0.753159 gives
    # 0.9289), so only the run seed varies.
    p = CHAOS
    config = {"seed": _rng("chaos-lyapunov", seed, index).randrange(2**31), "r": p["r"],
              "x0": p["x0"], "steps": p["steps"], "burnin": p["burnin"]}
    path = work / "chaos.json"
    inputs = {"chaos.json": _write(path, json.dumps(config, indent=1))}
    argv = ["dynamics", "lyapunov", "--config", str(path), "--out", "{out}/lyapunov.csv"]
    return Prepared(
        argv, inputs, float(p["steps"] + p["burnin"]),
        lambda out: check_lyapunov(out / "lyapunov.csv", p["x0"]),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "life-soup",
            "life run on a 100x100 soup, 90 gens: automaton.step dominates; "
            "holds every generation, so peak RSS shows history materialisation",
            "cell-generations", ("cell_gens_per_s", "1/s"), _prepare_life_soup,
        ),
        Workload(
            "life-profile",
            "complexity profile of an 80x80 soup, 80 gens, scales 1,2,4,8: "
            "the only run of coarse_grain, which reads the whole history 4 times",
            "cell-generations", ("cell_gens_per_s", "1/s"), _prepare_life_profile,
        ),
        Workload(
            "cas-grid",
            "cas run, 50 fixed + 50 adaptive agents on a 30x30 grid, 240 ticks: "
            "the tick is the whole run and memory histories grow every tick",
            "ticks", ("tick_ms", "ms"), _prepare_cas_grid,
        ),
        Workload(
            "ga-coevolve",
            "ga run --problem coevolve, 3 gens: hundreds of short 5-agent "
            "episodes; the only run of evolution and coevolve",
            "GA generations", ("ga_gens_per_s", "1/s"), _prepare_ga_coevolve,
        ),
        Workload(
            "chaos-lyapunov",
            "dynamics lyapunov, logistic r=4, 300k steps: the only dynamics run "
            "and the no-change control for Life and agent engine work",
            "map steps", ("map_steps_per_s", "1/s"), _prepare_chaos,
        ),
    )
}
