"""One-dimensional iterative maps and exponential-divergence diagnostics.

Maps may be deterministic (one branch) or stochastic (several branches
drawn by probability at every step). The per-step divergence exponent
(Lyapunov exponent) is estimated from the map's derivative along the
realized trajectory, with a two-trajectory renormalization method kept
as an independent cross-check.

The functions here step the orbit through one branch stream, built once
per call, that yields each step's branch; a deterministic map draws
nothing, so its ``rng`` is never read. Both estimators stream the orbit
in O(1) memory; only ``iterate`` materialises it, as a ``Trajectory``.
The one exception to the stream is ``divergence_rate`` on a map built by
``logistic_map``: its loop writes the map's two expressions inline, in
the branch's operation order, so its value and its warning are those of
the generic loop, bit for bit. It checks the state once at the end of
burn-in and once after the last step; if either is not finite, the
generic loop runs again from ``x0`` and raises the ``DivergenceError``
of the step that diverged.

A branch probability must be a finite number >= 0, and the
probabilities must sum to 1 within 1e-12. ``logistic_map``'s ``r``,
``x0`` and the two-trajectory ``delta0`` must be finite numbers
(``_shared.as_finite``), and ``delta0`` also > 0 and large enough to move
the companion off the state. A step count or burn-in must be an integer
(``_shared.as_integer``). Any other value is refused with a
``ValueError`` naming it.
"""

from __future__ import annotations

import itertools
import logging
import math
import random
from functools import cached_property
from typing import Callable, Iterator, Sequence

from ._shared import _Record, as_finite, as_integer, weighted_index

log = logging.getLogger(__name__)

# Substituted for |f'| when the derivative is exactly zero at a point.
DERIVATIVE_FLOOR = 1e-300


class DivergenceError(ArithmeticError):
    """Trajectory left the finite reals; carries the offending step index."""

    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite value {value!r} at step {step}")
        self.step = step


class Branch(_Record):
    """One map branch: the function, its derivative, and its draw probability."""

    _fields = ("fn", "deriv", "probability")

    def __init__(self, fn: Callable[[float], float], deriv: Callable[[float], float],
                 probability: float = 1.0):
        self.__dict__.update(fn=fn, deriv=deriv, probability=probability)


class IterativeMap(_Record):
    """A map of one or more branches, kept as a tuple."""

    _fields = ("branches",)

    def __init__(self, branches: Sequence[Branch]):
        branches = tuple(branches)
        if not branches:
            raise ValueError("a map needs at least one branch")
        total = 0.0
        for b in branches:
            total += as_finite("branch probability", b.probability, 0)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"branch probabilities must sum to 1, got {total}")
        self.__dict__.update(branches=branches)

    @property
    def deterministic(self) -> bool:
        return len(self.branches) == 1

    @cached_property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(b.probability for b in self.branches)


class _LogisticMap(IterativeMap):
    """The map ``logistic_map`` returns. It keeps ``r``, so that
    ``divergence_rate`` can run the branch's expressions inline. ``r`` is
    not a field: the repr, equality and hash are those of the map's
    branches, as for any ``IterativeMap``."""

    def __init__(self, r: float):
        super().__init__((Branch(lambda x: r * x * (1.0 - x), lambda x: r * (1.0 - 2.0 * x)),))
        self.__dict__["r"] = r


def logistic_map(r: float) -> IterativeMap:
    """x -> r*x*(1-x), derivative r*(1-2x)."""
    return _LogisticMap(as_finite("r", r))


def identity_map() -> IterativeMap:
    return IterativeMap((Branch(lambda x: x, lambda x: 1.0),))


class Trajectory(_Record):
    """States x0..xn plus, for stochastic maps, the branch chosen per step."""

    _fields = ("states", "branch_log")

    def __init__(self, states: tuple[float, ...], branch_log: tuple[int, ...]):
        self.__dict__.update(states=states, branch_log=branch_log)


def _branch_stream(m: IterativeMap, rng: random.Random | None) -> Iterator[tuple]:
    """The ``(index, fn, deriv)`` of every step: one repeated tuple for a
    deterministic map, which never draws, otherwise one ``rng`` draw per
    step. Callers zip a ``range`` first with it, so the stream is never
    pulled, and ``rng`` never drawn, past the last step."""
    steps = [(i, b.fn, b.deriv) for i, b in enumerate(m.branches)]
    if m.deterministic:
        return itertools.repeat(steps[0])
    probabilities, draw = m.probabilities, rng.random
    return (steps[weighted_index(probabilities, 1.0, draw())] for _ in itertools.repeat(None))


def _check_orbit(m: IterativeMap, x0: float, rng: random.Random | None) -> None:
    as_finite("x0", x0)
    if not m.deterministic and rng is None:
        raise ValueError("stochastic maps need a random stream")


def _check_estimate(
    m: IterativeMap, x0: float, n: int, burn_in: int, rng: random.Random | None
) -> None:
    """The argument checks both exponent estimators share, in this order."""
    as_integer("step count", n, 1)
    as_integer("burn-in", burn_in, 0)
    _check_orbit(m, x0, rng)


def _burn_in(x: float, burn_in: int, stream: Iterator[tuple]) -> float:
    """Step ``x`` through steps 1..burn_in of ``stream``; returns the state."""
    isfinite = math.isfinite
    for t, (_, fn, _) in zip(range(1, burn_in + 1), stream):
        x = fn(x)
        if not isfinite(x):
            raise DivergenceError(t, x)
    return x


def iterate(m: IterativeMap, x0: float, n: int, rng: random.Random | None = None) -> Trajectory:
    """Iterate the map ``n`` steps from ``x0``; deterministic maps ignore rng.

    The only function here that materialises an orbit: the estimators
    below stream theirs in O(1) memory.
    """
    as_integer("step count", n, 0)
    _check_orbit(m, x0, rng)
    states = [x0]
    branch_log = []
    x = x0
    for t, (i, fn, _) in zip(range(1, n + 1), _branch_stream(m, rng)):
        x = fn(x)
        if not math.isfinite(x):
            raise DivergenceError(t, x)
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
    warning after the loop gives their count. The orbit is streamed: each
    step takes the branch's derivative at the current state, then its
    image, so memory stays O(1) in ``burn_in + n``.
    """
    _check_estimate(m, x0, n, burn_in, rng)
    if type(m) is _LogisticMap:
        total, floors = _logistic_sums(m, x0, n, burn_in)
    else:
        total, floors = _generic_sums(m, x0, n, burn_in, rng)
    if floors:
        log.warning("zero derivative at %d of %d steps; floored at %g", floors, n, DERIVATIVE_FLOOR)
    return total / n


def _generic_sums(
    m: IterativeMap, x0: float, n: int, burn_in: int, rng: random.Random | None
) -> tuple[float, int]:
    """The sum of ln|f'| over steps burn_in+1..burn_in+n of any map's
    orbit, and the count of floored steps in it."""
    stream = _branch_stream(m, rng)
    x = _burn_in(x0, burn_in, stream)
    isfinite, log_ = math.isfinite, math.log
    total = 0.0
    floors = 0
    for t, (_, fn, deriv) in zip(range(burn_in + 1, burn_in + n + 1), stream):
        d = abs(deriv(x))
        if d == 0.0:
            floors += 1
            d = DERIVATIVE_FLOOR
        total += log_(d)
        x = fn(x)
        if not isfinite(x):
            raise DivergenceError(t, x)
    return total, floors


def _logistic_sums(m: _LogisticMap, x0: float, n: int, burn_in: int) -> tuple[float, int]:
    """``_generic_sums`` for ``logistic_map(r)``, with the branch's
    ``r * x * (1.0 - x)`` and ``r * (1.0 - 2.0 * x)`` written inline in
    the same operation order, so the sums are the same bits.

    A state that leaves the finite reals never comes back (inf and NaN
    stay non-finite through ``r * x * (1.0 - x)`` for any real ``r``), and
    nothing in the loop raises on one, so the state is checked only at
    the end of burn-in and after the last step. If either check fails,
    the generic loop runs again from ``x0`` and raises its
    ``DivergenceError`` at the step that diverged."""
    r, x = m.r, x0
    isfinite, log_, repeat = math.isfinite, math.log, itertools.repeat
    for _ in repeat(None, burn_in):
        x = r * x * (1.0 - x)
    if isfinite(x):
        total = 0.0
        floors = 0
        for _ in repeat(None, n):
            d = abs(r * (1.0 - 2.0 * x))
            if d == 0.0:
                floors += 1
                d = DERIVATIVE_FLOOR
            total += log_(d)
            x = r * x * (1.0 - x)
        if isfinite(x):
            return total, floors
    return _generic_sums(m, x0, n, burn_in, None)


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
    separation growth each step and rescaling the offset back to ``delta0``
    (Benettin et al. 1980). Stochastic maps apply the same branch to both
    trajectories. Checks its arguments as ``divergence_rate`` does, then
    refuses a ``delta0`` that is not a finite number > 0, and streams the
    orbit the same way. A ``delta0`` below the resolution of a state
    places the companion on it, where every separation would be 0; that
    raises ValueError naming ``delta0``, the state and its step.
    """
    _check_estimate(m, x0, n, burn_in, rng)
    if not as_finite("delta0", delta0) > 0:
        raise ValueError(f"delta0 must be a finite number > 0, got {delta0!r}")
    stream = _branch_stream(m, rng)
    x = _burn_in(x0, burn_in, stream)
    y = x + delta0
    total = 0.0
    for t, (_, fn, _) in zip(range(burn_in + 1, burn_in + n + 1), stream):
        fx, fy = fn(x), fn(y)
        if not math.isfinite(fx) or not math.isfinite(fy):
            raise DivergenceError(t, fx if not math.isfinite(fx) else fy)
        sep = abs(fy - fx)
        if sep == 0.0:
            # A companion placed on the state (delta0 below its resolution)
            # merges with it at once, so only this branch can see it.
            if y == x:
                raise ValueError(
                    f"delta0 {delta0!r} is below the resolution of the state {x!r} at step {t - 1}")
            total += math.log(DERIVATIVE_FLOOR)
            x, y = fx, fx + delta0
            continue
        total += math.log(sep / delta0)
        x, y = fx, fx + delta0 * ((fy - fx) / sep)
    return total / n
