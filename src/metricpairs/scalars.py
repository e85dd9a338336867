"""Exact and floating-point scalar handling.

Distances are either exact (int / Fraction, compared with zero tolerance)
or floats (compared with a global absolute tolerance).  Mixing the two in
one matrix demotes the computation to float mode.

The tolerance lets ``spaces.validate_metric`` admit a matrix that is
asymmetric, or has a nonzero diagonal, within it.  The report describes
the matrix as given, but the space it returns is canonical: each lower
entry takes its upper mirror's value and the diagonal is ``zero_for`` of
the given entries, so 0.0 in float mode.  No computation downstream
meets an asymmetric distance.
"""
from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import chain
from typing import Iterable, Union

Scalar = Union[int, Fraction, float]

#: absolute tolerance used by every comparison in float mode
DEFAULT_TOLERANCE = 1e-9


def is_exact(value: Scalar) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def all_exact(values: Iterable[Scalar]) -> bool:
    return all(is_exact(v) for v in values)


def parse_scalar(value, exact: bool = True) -> Scalar:
    """Parse a scalar from JSON/CSV content.

    Strings may be "p/q" or decimal ("0.25", "1e-3"); both parse exactly.
    In exact mode floats are converted to their exact binary rational, so
    no information is lost either way.  NaN, infinities and, in float
    mode, values beyond the float range raise ValueError.
    """
    if isinstance(value, bool):
        raise TypeError("boolean is not a scalar")
    if isinstance(value, float):
        if not math.isfinite(value):  # JSON NaN and Infinity
            raise ValueError(f"cannot parse scalar {value!r}")
        return Fraction(value) if exact else value
    if isinstance(value, str):
        try:
            parsed = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse scalar {value!r}") from exc
    elif isinstance(value, (int, Fraction)):
        parsed = Fraction(value)
    else:
        raise TypeError(f"cannot parse scalar of type {type(value).__name__}")
    if exact:
        return parsed
    try:
        return float(parsed)
    except OverflowError as exc:
        raise ValueError(f"scalar {value!r} is out of float range") from exc


def check_positive(value: Scalar, name: str) -> None:
    """Raise ValueError unless ``value`` is a finite number > 0 other than
    a bool; NaN and infinities pass a bare ``value <= 0`` test."""
    if isinstance(value, bool) or not (value > 0 and (is_exact(value) or math.isfinite(value))):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def as_index(value, name: str) -> int:
    """``value`` as an int if it is an integer other than a bool: an int or
    any value with ``__index__``, such as a numpy integer.  What ``int``
    would truncate or parse instead (a bool, a float or fraction, whole or
    not, a digit string) raises ValueError; what ``int`` cannot read at all
    keeps its error."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    int(value)
    raise ValueError(f"{name} must be an integer index, got {value!r}")


def format_scalar(value: Scalar):
    """Render for JSON: rationals as 'p/q' in lowest terms, floats as-is."""
    if isinstance(value, float):
        return value
    return str(Fraction(value))


def tolerance_for(values: Iterable[Scalar]) -> Scalar:
    """Comparison tolerance: 0 when every value is exact, else the float one."""
    return 0 if all_exact(values) else DEFAULT_TOLERANCE


def zero_for(*rows: Iterable[Scalar]) -> Scalar:
    """The zero of the rows' kind: 0 when every entry is exact, else 0.0,
    so a sup or total started from it stays float in float mode."""
    return 0 if all_exact(chain.from_iterable(rows)) else 0.0


def quotient(a: Scalar, b: Scalar) -> Scalar:
    """``a / b``: a Fraction when both are exact, a float otherwise."""
    return Fraction(a, b) if is_exact(a) and is_exact(b) else a / b


def left_sum(values: Iterable[Scalar]) -> Scalar:
    """The sum from 0, left to right.  ``sum()`` adds floats with
    compensation from Python 3.12 on, so its float totals depend on the
    interpreter; this one gives the bits ``sum()`` gives on 3.10 and 3.11."""
    return functools.reduce(operator.add, values, 0)


def close(a: Scalar, b: Scalar) -> bool:
    """Equality in exact mode, agreement within the tolerance in float mode."""
    if is_exact(a) and is_exact(b):
        return a == b
    return abs(a - b) <= DEFAULT_TOLERANCE


def half(value: Scalar) -> Scalar:
    """Exact halving that keeps integers integral when possible."""
    if isinstance(value, bool):
        raise TypeError("boolean is not a scalar")
    if isinstance(value, int):
        return value // 2 if value % 2 == 0 else Fraction(value, 2)
    return value / 2


def _bind(cls, names: tuple, args: tuple, kwargs: dict) -> tuple:
    """Field values in field order from a call's arguments, or TypeError."""
    if len(args) > len(names):
        raise TypeError(
            f"{cls.__name__}() takes {len(names)} positional arguments but {len(args)} were given"
        )
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        values[name] = value
    missing = [name for name in names if name not in values]
    if missing:
        raise TypeError(f"{cls.__name__}() missing required arguments: {', '.join(missing)}")
    return tuple(values[name] for name in names)


def value_class(cls):
    """Make ``cls`` an immutable value over its annotated fields, in order.

    The class gets plain functions closed over the field names, so no
    code is generated at import: ``__init__`` takes every field,
    positionally or by keyword, then calls ``__post_init__`` when the
    class defines one (it may still set a field with
    ``object.__setattr__``); equality and hash go by the field tuple,
    between instances of one class only; ``repr`` reads
    ``Name(field=value, ...)``; assigning or deleting any attribute
    raises AttributeError.  Fields have no defaults.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    count = len(names)
    indexed = tuple(enumerate(names))
    get = operator.attrgetter(*names)
    fields = get if count > 1 else lambda self: (get(self),)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls, names, args, kwargs)
        # a store per field into the instance dict costs less than zip
        # with dict.update, or than object.__setattr__ per field
        state = self.__dict__
        for i, name in indexed:
            state[name] = args[i]
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{cls.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {cls.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {cls.__name__} is immutable")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls
