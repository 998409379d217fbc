"""Value records: plain ``__slots__`` classes compared and printed by field.

A record lists its fields in ``__slots__`` and sets them all in ``__init__``.
Two records are equal when they are of one class and their fields are equal
in order, and one prints as ``Name(field=value, ...)``. Records do not hash:
their fields may be lists or dicts.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__slots__)
        return f"{type(self).__qualname__}({fields})"
