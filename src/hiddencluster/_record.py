"""Base class of the package's immutable value records.

A subclass lists its fields as class annotations and writes an explicit
``__init__`` that checks its arguments and stores each field with
:data:`set_field`.  This base turns the annotations into ``_fields`` and
gives every record the frozen guard, ``==``, ``hash``, ``repr`` and
``__match_args__`` of a frozen dataclass, without importing ``dataclasses``
or generating code.
"""

from operator import attrgetter

#: Stores one field past the guard.  The generic setter keeps the fields in
#: the instance's compact inline storage, as assignment in a plain class does.
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = fields = tuple(cls.__dict__.get("__annotations__", ()))
        if len(fields) < 2:
            raise TypeError(f"a record needs at least two fields, {cls.__name__} has {fields}")
        # the field tuple in one C call (attrgetter of one name would return a bare value)
        cls._values = attrgetter(*fields)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        values = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in values)})"
