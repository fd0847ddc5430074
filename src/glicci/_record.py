"""Immutable records: the part of a frozen dataclass this package uses.

A record class names its fields in ``_fields`` and sets each one in
``__init__`` with ``object.__setattr__`` or, on the planner's hot path,
with the setters :func:`slot_setters` returns.  Equality (same class
only), hashing and ``repr`` go field by field as a frozen dataclass's
do, assignment and deletion raise ``AttributeError``, and ``copy`` and
``pickle`` rebuild the record through ``__init__``, which validates it.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def slot_setters(cls: type[Record]) -> tuple:
    """The ``__set__`` of each of ``cls``'s slots, in field order.  Called
    directly they skip the lookup by name that ``object.__setattr__``
    makes for every field."""
    return tuple(vars(cls)[name].__set__ for name in cls._fields)


def field_error(name: str, kind: type, value) -> TypeError:
    """The ``TypeError`` for a field ``name`` whose value is not a ``kind``."""
    return TypeError(f"field {name!r} must be {kind.__name__}, got {type(value).__name__}")
