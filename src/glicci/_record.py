"""Immutable records: the part of a frozen dataclass this package uses.

A record class names its fields in ``_fields`` and sets each one in
``__init__`` with ``object.__setattr__``.  Equality (same class only),
hashing and ``repr`` go field by field as a frozen dataclass's do,
assignment and deletion raise ``AttributeError``, and ``copy`` and
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
