"""Exact and floating-point scalar handling.

Distances are either exact (int / Fraction, compared with zero tolerance)
or floats (compared with a global absolute tolerance).  Mixing the two in
one matrix demotes the computation to float mode.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
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
    """Raise ValueError unless ``value`` is a finite number > 0; NaN and
    infinities pass a bare ``value <= 0`` test."""
    if not (value > 0 and (is_exact(value) or math.isfinite(value))):
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
