"""Immutable value classes without the dataclasses module.

Importing dataclasses loads inspect, and with it ast, dis and tokenize:
about 1 MB of resident memory and 10 ms of start-up in every process that
imports hzeta.  The package's value classes need only named fields,
equality, hashing and a repr, which Record gives them.
"""

from __future__ import annotations


class Record:
    """Base of an immutable value class whose fields are its __slots__.

    A subclass names its fields in __slots__ and assigns them once, in its
    __init__, through _init.  Equality, hashing and repr go by the fields
    in that order, as for a frozen dataclass.
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
