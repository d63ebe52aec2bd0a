"""``Frozen``: the base of the package's validated, immutable value records.

A record class lists its fields in ``__slots__``, in the order of its
``__init__`` parameters, validates its arguments in ``__init__`` and stores
them with ``_init``; a record made once per task stores them with
``set_field``, one call per field, which costs less than ``_init``'s loop.
Slots keep a field read as cheap as Python allows, which matters for the
contention parameters the engine reads at every event, and the class is
built by plain class creation, with no code generated at import.
"""

import sys
from functools import reduce
from operator import add

set_field = object.__setattr__  # stores a field past Frozen.__setattr__
FLOAT_MAX = sys.float_info.max


def is_real(value) -> bool:
    """Whether ``value`` is a number a record can hold: an int or a float, not
    a bool, within a float's range, so NaN, an infinity and ``10**400`` are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and (
        abs(value) <= FLOAT_MAX)


def left_sum(values) -> float:
    """``values`` added left to right from 0.0, the order CPython 3.11's
    ``sum`` takes: from 3.12 on, ``sum`` of floats is compensated and can
    differ in the last bit, so a sum that reaches an output is this fold."""
    return reduce(add, values, 0.0)


def whole_problem(name: str, value, low: int) -> str | None:
    """Why field ``name`` cannot hold ``value``, or None: a trace writes it as
    an int and a report may convert it to a float. A bool is no number."""
    if type(value) is not int or not low <= value <= FLOAT_MAX:
        return f"{name} must be >= {low} and within a float's range, as an int"


class Frozen:
    """Immutable record: equal and hashed by its fields (those ``_key``
    returns), shown as ``Name(field=value, ...)``. ``replace`` makes a changed
    copy through ``__init__``, so a copy is validated as a new record is."""

    __slots__ = ()

    def _init(self, *values) -> None:
        """Store ``values`` as the fields, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            set_field(self, name, value)

    def _key(self) -> tuple:
        """The values that equality and the hash compare."""
        return tuple([getattr(self, name) for name in self.__slots__])

    def as_dict(self) -> dict:
        """Field name -> value, in field order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated as a new record is."""
        return type(self)(**{**self.as_dict(), **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), tuple([getattr(self, name) for name in self.__slots__])
