"""Checks and helpers that several engines and the CLI share.

This module imports no other ``complexkit`` module, so an engine or the
CLI can use it without loading another engine. ``scenario`` and the CLI
read every input value through ``checked``, and refuse bad input with
``ScenarioError``. Every engine takes each count it is given (a step,
tick or generation count, a scale, a population or rule count, a rule
index) through ``as_integer``, the library's one integer check, which
refuses a bad count with a ``ValueError`` in one of two forms. Every
real argument that must be finite (a rate, weight, probability, draw,
stimulus, gain, ``r``, ``x0`` or ``delta0``) goes through ``as_finite``,
the one finite-number check, which refuses a value that is not a real
number, one that is not finite and one outside its bounds, each with its
own message; only ``EvolutionConfig.target_fitness`` is checked for type
alone, through ``as_real``. ``cas`` and ``dynamics`` draw an index by
weight through ``weighted_index``. Every public record class derives
from ``_Record``, which gives it a dataclass's repr, equality, hash and
immutability without importing ``dataclasses``.
"""

from __future__ import annotations

import sys
from operator import index
from reprlib import recursive_repr
from typing import Mapping, Sequence


class ScenarioError(ValueError):
    """A one-line input error, which the CLI maps to exit 2: a config key or
    value, a flag value, a scenario document, or an input file that is not
    UTF-8 text."""


# The Python types each JSON kind admits, and its name in messages. bool is
# an int subclass and is refused for every kind. An integer passes as a
# number unconverted, so a CSV echo keeps its text, but it must fit in a
# float, as must every number: Python's json reads NaN, Infinity and
# integers of any size.
_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string"),
          dict: (Mapping, "an object"), list: ((list, tuple), "a list")}


def checked(name: str, value, kind: type, choices=None, low=None):
    """Return ``value`` if it is a JSON value of ``kind`` (int, float, str,
    dict or list; a float also finite), is one of ``choices`` (for a dict:
    has only those keys) and is ``>= low``; otherwise raise a one-line
    ScenarioError naming ``name``."""
    types, expected = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ScenarioError(f"{name} must be {expected}, got {type(value).__name__}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN fails too
        raise ScenarioError(f"{name} must be a finite number, got {value!r}")
    if kind is dict and choices is not None:
        for key in value:
            if key not in choices:
                raise ScenarioError(f"{name} has unknown key {key!r}")
    elif choices is not None and value not in choices:
        raise ScenarioError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    if low is not None and value < low:
        raise ScenarioError(f"{name} must be >= {low}, got {value}")
    return value


def as_integer(what: str, value, low: int | None = None) -> int:
    """``value`` as an int, through ``operator.index`` (ints, bools, numpy
    integers); raise ValueError naming ``what`` and the value if it is
    another type or below ``low``."""
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{what} must be >= {low}, got {value}")
    return value


def as_real(what: str, value):
    """``value`` unchanged if it is a real number (ints, bools, floats,
    ``Fraction``s, numpy scalars); raise ValueError naming ``what`` and
    the value for another type."""
    if not isinstance(value, (int, float)):
        import numbers  # only for the rarer real types: start-up never loads it

        if not isinstance(value, numbers.Real):
            raise ValueError(f"{what} must be a real number, got {value!r}")
    return value


def as_finite(what: str, value, low=None, high=None):
    """``value`` unchanged if it is a real number (``as_real``) that fits a
    finite float and lies in ``[low, high]`` (either bound may be None);
    raise ValueError naming ``what`` and the value otherwise."""
    if not abs(as_real(what, value)) <= sys.float_info.max:  # NaN fails too
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    if (low is not None and value < low) or (high is not None and value > high):
        bound = (f"be >= {low}" if high is None else f"be <= {high}" if low is None
                 else f"lie in [{low}, {high}]")
        raise ValueError(f"{what} must {bound}, got {value!r}")
    return value


class _Record:
    """An immutable record with the named fields ``_fields``, each held
    as the attribute of that name. A subclass writes only ``__init__``,
    whose parameters are the fields, and sets them through
    ``self.__dict__``. Repr, equality and hash are those of a frozen
    dataclass with those fields; ``_replace`` is ``dataclasses.replace``."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    @recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A new record of this class with ``changes`` applied, built
        through ``__init__``, so that its checks run again."""
        for name in self._fields:
            changes.setdefault(name, getattr(self, name))
        return type(self)(**changes)

    __replace__ = _replace  # copy.replace, from Python 3.13


def weighted_index(weights: Sequence[float], total: float, u: float) -> int:
    """Map a uniform ``u`` in [0, 1) to an index with probability
    proportional to its weight, given the weights' positive ``total``;
    rounding past the last cumulative weight picks the last index."""
    u *= total
    acc = 0.0
    i = 0
    for w in weights:  # a counter, not enumerate: this is the agent tick's inner loop
        acc += w
        if u < acc:
            return i
        i += 1
    return i - 1
