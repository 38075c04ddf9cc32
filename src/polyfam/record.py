"""Base classes of the package's result records.

A record lists its fields, two or more, in `_fields` in constructor
order, and writes its own __init__ (defaults and validation included).
The bases give it a field-wise ==, the repr `Name(field=value, ...)` and,
when frozen, the hash of the field tuple and an AttributeError on
assignment. They replace `dataclasses`, whose import (with inspect, ast,
dis and tokenize) cost most of a cold `import polyfam`.
"""

from __future__ import annotations

import operator


class Record:
    """Mutable record: field-wise ==, unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        if cls._fields:
            # the field tuple, read by one attrgetter of the names: == and
            # hash on PolyK cost what the dataclass's did
            cls._astuple = property(operator.attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple == other._astuple
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        args = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({args})"


class FrozenRecord(Record):
    """Immutable record, hashed by its field tuple. __init__ sets each
    field with object.__setattr__."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._astuple)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which a slotted record
        # needs: restoring its slots by setattr would raise
        return type(self), self._astuple
