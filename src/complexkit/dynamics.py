"""One-dimensional iterative maps and exponential-divergence diagnostics.

Maps may be deterministic (one branch) or stochastic (several branches
drawn by probability at every step). The per-step divergence exponent
(Lyapunov exponent) is estimated from the map's derivative along the
realized trajectory, with a two-trajectory renormalization method kept
as an independent cross-check.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

log = logging.getLogger(__name__)

# Substituted for |f'| when the derivative is exactly zero at a point.
DERIVATIVE_FLOOR = 1e-300


class DivergenceError(ArithmeticError):
    """Trajectory left the finite reals; carries the offending step index."""

    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite value {value!r} at step {step}")
        self.step = step


@dataclass(frozen=True)
class Branch:
    """One map branch: the function, its derivative, and its draw probability."""

    fn: Callable[[float], float]
    deriv: Callable[[float], float]
    probability: float = 1.0


@dataclass(frozen=True)
class IterativeMap:
    branches: tuple[Branch, ...]

    def __post_init__(self):
        if not self.branches:
            raise ValueError("a map needs at least one branch")
        total = 0.0
        for b in self.branches:
            if b.probability < 0:
                raise ValueError("branch probabilities must be non-negative")
            total += b.probability
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"branch probabilities must sum to 1, got {total}")

    @property
    def deterministic(self) -> bool:
        return len(self.branches) == 1

    @cached_property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(b.probability for b in self.branches)


def logistic_map(r: float) -> IterativeMap:
    """x -> r*x*(1-x), derivative r*(1-2x)."""
    return IterativeMap((Branch(lambda x: r * x * (1.0 - x), lambda x: r * (1.0 - 2.0 * x)),))


def identity_map() -> IterativeMap:
    return IterativeMap((Branch(lambda x: x, lambda x: 1.0),))


@dataclass(frozen=True)
class Trajectory:
    """States x0..xn plus, for stochastic maps, the branch chosen per step."""

    states: tuple[float, ...]
    branch_log: tuple[int, ...]


def weighted_index(weights: Sequence[float], total: float, u: float) -> int:
    """Map a uniform ``u`` in [0, 1) to an index with probability
    proportional to its weight, given the weights' positive ``total``;
    rounding past the last cumulative weight picks the last index."""
    u *= total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def _choose_branch(m: IterativeMap, rng: random.Random) -> int:
    if m.deterministic:
        return 0
    return weighted_index(m.probabilities, 1.0, rng.random())


def iterate(m: IterativeMap, x0: float, n: int, rng: random.Random | None = None) -> Trajectory:
    """Iterate the map ``n`` steps from ``x0``; deterministic maps ignore rng."""
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    if not m.deterministic and rng is None:
        raise ValueError("stochastic maps need a random stream")
    states = [x0]
    branch_log = []
    x = x0
    for t in range(n):
        i = _choose_branch(m, rng) if rng is not None else 0
        x = m.branches[i].fn(x)
        if not math.isfinite(x):
            raise DivergenceError(t + 1, x)
        states.append(x)
        branch_log.append(i)
    return Trajectory(states=tuple(states), branch_log=tuple(branch_log))


def divergence_rate(
    m: IterativeMap,
    x0: float,
    n: int,
    burn_in: int = 1000,
    rng: random.Random | None = None,
) -> float:
    """Per-step divergence exponent from derivatives along the trajectory.

    Positive values signal exponential divergence of nearby trajectories,
    negative values contraction. Points with derivative exactly zero are
    floored at ln(DERIVATIVE_FLOOR) rather than aborting the run; one
    warning after the loop gives their count.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 steps, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn-in must be >= 0, got {burn_in}")
    traj = iterate(m, x0, burn_in + n, rng)
    total = 0.0
    floors = 0
    for t in range(burn_in, burn_in + n):
        i = traj.branch_log[t]
        d = abs(m.branches[i].deriv(traj.states[t]))
        if d == 0.0:
            floors += 1
            d = DERIVATIVE_FLOOR
        total += math.log(d)
    if floors:
        log.warning("zero derivative at %d of %d steps; floored at %g", floors, n, DERIVATIVE_FLOOR)
    return total / n


def divergence_rate_two_trajectory(
    m: IterativeMap,
    x0: float,
    n: int,
    burn_in: int = 1000,
    delta0: float = 1e-9,
    rng: random.Random | None = None,
) -> float:
    """Independent exponent estimate from a renormalized companion trajectory.

    Tracks a second trajectory offset by ``delta0``, accumulating the log
    separation growth each step and rescaling the offset back to ``delta0``.
    Stochastic maps apply the same branch to both trajectories.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 steps, got {n}")
    if not m.deterministic and rng is None:
        raise ValueError("stochastic maps need a random stream")
    x = x0
    for t in range(burn_in):
        i = _choose_branch(m, rng) if rng is not None else 0
        x = m.branches[i].fn(x)
        if not math.isfinite(x):
            raise DivergenceError(t + 1, x)
    y = x + delta0
    total = 0.0
    for t in range(n):
        i = _choose_branch(m, rng) if rng is not None else 0
        fn = m.branches[i].fn
        x, y = fn(x), fn(y)
        if not math.isfinite(x) or not math.isfinite(y):
            raise DivergenceError(burn_in + t + 1, x if not math.isfinite(x) else y)
        sep = abs(y - x)
        if sep == 0.0:
            total += math.log(DERIVATIVE_FLOOR)
            y = x + delta0
            continue
        total += math.log(sep / delta0)
        y = x + delta0 * ((y - x) / sep)
    return total / n
