"""Field checks of the link, MAC and PHY layers: the config parser's rules
for library callers.  Each check returns the value it accepts and raises a
``ValueError``; a field's check names the field."""

import math
import operator


def count(name: str, value, low: int = 1) -> int:
    """``value`` as a Python int of at least ``low``; a float, even 10.0, is
    no count, and a numpy integer is converted, so no count overflows."""
    try:
        value = int(operator.index(value))
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}")
    return value


def positive(name: str, value):
    """``value``, which must be a finite real number above 0."""
    try:
        if math.isfinite(value) and value > 0:
            return value
    except TypeError:
        raise ValueError(f"{name} must be a real number, not {value!r}") from None
    raise ValueError(f"{name} must be finite and strictly positive")


def finite(name: str, value):
    """``value``, which must be a finite real number."""
    try:
        if math.isfinite(value):
            return value
    except TypeError:
        raise ValueError(f"{name} must be a real number, not {value!r}") from None
    raise ValueError(f"{name} must be finite")


def fields(obj, check, *names: str, **limits) -> None:
    """Check each named field of ``obj``, frozen or not, and store the value
    the check returns."""
    for name in names:
        object.__setattr__(obj, name, check(name, getattr(obj, name), **limits))


def axes(*values) -> list[list]:
    """Each axis of a sweep grid as a list, taken once; none may be empty."""
    values = [list(axis) for axis in values]
    if not all(values):
        raise ValueError("sweep axes must be non-empty")
    return values
