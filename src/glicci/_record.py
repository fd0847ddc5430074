"""Immutable records: the part of a frozen dataclass this package uses.

A record class names its fields in ``_fields``.  A plain record derives
from :class:`Plain`, whose constructor only stores the fields given by
position; a checked one sets them in its own ``__init__`` with
``object.__setattr__`` or on a draft (see :func:`draft`) in ``__new__``.
The unchecked builds that read a planned chain's steps, a move and its
carrier per step, fill a draft too, so that no Python-level
``__init__`` runs there.  Equality (same class only), hashing and
``repr`` go field by field as a frozen dataclass's do, assignment and
deletion raise ``AttributeError``, and ``copy`` and ``pickle`` rebuild
the record through its constructor, which validates it.
:func:`type_error`, :func:`check_types`, :func:`check_ints` and
:func:`int_entries` give the constructors and the argument checks one
wording of the ``TypeError`` naming the field, argument or entry.
"""

from operator import index


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


class Plain(Record):
    """A record built from its fields by position, in ``_fields`` order,
    and checked only for their number: a wrong count raises
    ``TypeError`` naming the class."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields,"
                            f" got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


def draft(cls: type[Record]) -> type[Record]:
    """A class with the slots of ``cls``, a direct subclass of
    :class:`Record`, whose instances take plain assignment.

    A hot constructor calls the draft (cheaper than ``object.__new__``),
    assigns every field and then sets ``__class__`` to ``cls``.  Both classes lay
    out the same slots on the same base, so Python allows the switch, and
    the object is a ``cls`` record, immutable, from then on.  A plain
    slot store costs about half a call to the slot descriptor's
    ``__set__``."""
    return type(f"{cls.__name__}Draft", (Record,), {
        "__slots__": cls._fields,
        "__setattr__": object.__setattr__,
        "__delattr__": object.__delattr__,
    })


def type_error(what: str, kind: type, value) -> TypeError:
    """The ``TypeError`` for ``what`` whose value is not a ``kind``, as in
    ``field 'd' must be int, got float`` or ``point count must be int,
    got bool``."""
    return TypeError(f"{what} must be {kind.__name__}, got {type(value).__name__}")


def check_types(names, kinds, values, label: str = "field {!r}") -> None:
    """Raise :func:`type_error`, naming by ``label`` the first of ``values``
    that is not exactly its kind, as in ``field 'd' must be int, got
    float``.  An optional value's kind is ``(T, None)``: None passes too."""
    for name, kind, value in zip(names, kinds, values):
        if type(value) is not kind:
            if type(kind) is tuple:
                kind = kind[0]
                if value is None or type(value) is kind:
                    continue
            raise type_error(label.format(name), kind, value)


def check_ints(**values) -> None:
    """:func:`check_types` of named ints, as in ``d must be int, got bool``."""
    check_types(values, (int,) * len(values), values.values(), "{}")


def int_entries(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints.  An entry that is a ``bool``, or has
    no ``__index__``, raises ``TypeError`` naming its position, as in
    ``coefficient 0 must be int, got bool``."""
    entries = []
    for position, value in enumerate(values):
        if type(value) is not int:
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise type_error(f"{what} {position}", int, value)
            value = index(value)
        entries.append(value)
    return tuple(entries)
