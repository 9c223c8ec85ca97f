"""Small shared helpers: exact rational I/O, the record base classes and ordering keys."""

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


# how the __init__ of a Value subclass sets its fields past the refusing __setattr__
set_field = object.__setattr__


class Value:
    """Immutable fields named by ``_fields``, printed as ``Name(field=value, ...)``.

    The hot point, edge and word types subclass this with ``__slots__``
    and write their own ``__init__`` (``set_field`` per field), ``__eq__``
    and ``__hash__``.  The records are plain classes, not dataclasses:
    importing ``dataclasses`` (which loads ``inspect``) and generating its
    methods added about 40 ms to every start-up on a 2-CPU host.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since assignment is refused
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Record(Value):
    """A report record whose fields are its class annotations, in order.

    A class attribute of a field's name is its default.  Instances take the
    fields positionally or by keyword, compare and hash by value over every
    field not named in the class keyword ``uncompared``, and refuse
    assignment.  The annotations are read once, when the subclass is
    defined.
    """

    def __init_subclass__(cls, *, uncompared: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        if not set(uncompared) <= set(cls._fields):
            raise TypeError(f"{cls.__name__}: uncompared names unknown fields {uncompared}")
        cls._compared = tuple(name for name in cls._fields if name not in uncompared)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{cls.__name__} takes the fields {fields}, "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__} is missing the fields {missing}")
        vars(self).update((name, values[name]) for name in fields)

    def _key(self) -> tuple:
        state = vars(self)
        return tuple(state[name] for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())


def id_key(identifier):
    """Sort key that keeps mixed int/str identifier sets deterministic."""
    if type(identifier) is str:  # the common case, first
        return (1, 0, identifier)
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
