"""Small shared helpers: exact rational I/O and deterministic ordering keys."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable

from .errors import ConfigInvalid


def frac(value) -> Fraction:
    """Coerce ints, strings like ``"3/4"`` and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def integer_scale(values: Iterable[Fraction]) -> tuple[int, Callable[[Fraction], int]]:
    """The least common denominator ``L`` of ``values`` and the exact map ``x -> x*L``.

    The map returns an ``int`` only for rationals whose denominator divides
    ``L``: the ``values`` themselves and integer combinations of them.
    """
    scale = lcm(*{v.denominator for v in values})
    return scale, lambda x: x.numerator * (scale // x.denominator)


def read_param(value, key: str, parse=int, minimum=0):
    """A parsed config value; malformed or too small values are ConfigInvalid."""
    try:
        if isinstance(value, (bool, float)):  # int() truncates 2.7 and reads True as 1
            raise TypeError
        value = parse(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigInvalid(f"malformed value {value!r} for {key}") from None
    if minimum is not None and value < minimum:
        raise ConfigInvalid(f"{key} must be at least {minimum}, got {value}")
    return value


def frac_str(value: Fraction) -> str:
    return str(Fraction(value))


def id_key(identifier):
    """Sort key that keeps mixed int/str identifier sets deterministic."""
    if isinstance(identifier, bool):
        raise TypeError("bool is not a valid identifier")
    if isinstance(identifier, int):
        return (0, identifier, "")
    return (1, 0, str(identifier))


def point_key(point):
    """Deterministic ordering for DPoints (vertices first, then edge positions)."""
    t = getattr(point, "t", None)
    if t is None:
        return (0, id_key(point.vertex), Fraction(0))
    return (1, id_key(point.edge), t)
