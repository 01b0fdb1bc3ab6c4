"""Uniform reporting container for the bound catalogue, and the frozen
record base that the package's value classes share."""

from __future__ import annotations

from operator import attrgetter

ALPHA_LOWER = "alpha-lower"
TAU_UPPER = "tau-upper"

CHAR_ZERO = "characteristic 0 only"
SHGH_CONDITIONAL = "SHGH-conditional"


class PreconditionError(ValueError):
    """A bound method does not apply to the given scheme or parameters."""


def fmt_rational(x) -> str:
    """Exact rendering: integers plainly, other rationals as p/q."""
    from fractions import Fraction
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


class _Record:
    """A frozen value: compared, hashed and printed by its fields.

    A subclass declares its fields by annotating names in its class body,
    in order; a name also given a value there takes it as its default.
    The inherited ``__init__`` binds arguments as the signature
    ``(field, ..., name=default)`` would and fills the instance
    ``__dict__`` in one step.  A record whose fields are read in hot loops
    writes its own that stores each field with ``object.__setattr__``:
    on CPython 3.11 an attribute read from an instance whose ``__dict__``
    was touched takes about four times as long.  Fields are plain
    instance attributes, so ``functools.cached_property``, ``copy`` and
    ``pickle`` work as on any plain object.

    Two records are equal when they are of the same class and their
    fields are equal; the hash is that of the field values, and the repr
    is ``Class(field=value, ...)``.  Assigning or deleting any attribute
    raises AttributeError.  This is the behaviour of a frozen dataclass,
    without importing the dataclass module (and with it ``inspect``) on
    every start of the package.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        # The field values, compared and hashed; with one field, the bare value.
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))

    def _bind(self, args: tuple, kwargs: dict) -> list:
        # The field values, in order, that the signature (field, ...,
        # name=default) binds to args and kwargs.
        fields, kind = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{kind}() takes {len(fields)} arguments, got {len(args)}")
        given = dict(zip(fields, args))
        for name in kwargs:
            if name not in fields or name in given:
                raise TypeError(f"{kind}() got an unexpected or repeated argument {name!r}")
        given.update(kwargs)
        missing = [f for f in fields if f not in given and f not in self._defaults]
        if missing:
            raise TypeError(f"{kind}() is missing the arguments {', '.join(missing)}")
        return [given[f] if f in given else self._defaults[f] for f in fields]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BoundReport(_Record):
    """One bound: method tag, direction, value, parameters, caveats."""

    method: str
    direction: str
    value: int
    params: tuple[tuple[str, object], ...] = ()
    validity: tuple[str, ...] = ()

    def __init__(self, method: str, direction: str, value: int,
                 params: tuple[tuple[str, object], ...] = (), validity: tuple[str, ...] = ()):
        # Written out: a bounds query builds 20 or more reports and reads them.
        set_field = object.__setattr__
        set_field(self, "method", method)
        set_field(self, "direction", direction)
        set_field(self, "value", value)
        set_field(self, "params", params)
        set_field(self, "validity", validity)
