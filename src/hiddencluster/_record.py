"""Base class of the package's immutable value records.

A subclass lists its fields, any number of them, as class annotations.
This base turns the annotations into ``_fields`` and gives every record the
frozen guard, ``==``, ``hash``, ``repr`` and ``__match_args__`` of a frozen
dataclass, without importing ``dataclasses``.  As in a dataclass, ``==``,
``hash`` and ``repr`` read the tuple of the field values.

A record that checks its arguments writes its own ``__init__`` and stores
each field with :data:`set_field`.  Every other record gets the constructor
of a frozen dataclass without field defaults: it takes every field, by
position or by name, in declaration order, and stores it with
:data:`set_field`.  That constructor is compiled once per class from the
field names, as ``collections.namedtuple`` compiles its ``__new__``, so a
call runs the same ``set_field`` calls a hand-written one would.
"""

#: Stores one field past the guard.  The generic setter keeps the fields in
#: the instance's compact inline storage, as assignment in a plain class does.
set_field = object.__setattr__


def _storing_init(cls: type):
    """The ``__init__`` that takes and stores every field of ``cls``."""
    stores = "".join(f"\n    set_field(self, {name!r}, {name})" for name in cls._fields)
    namespace = {"set_field": set_field}
    exec(f"def __init__(self, {', '.join(cls._fields)}):{stores}", namespace)
    init = namespace["__init__"]
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    return init


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        if "__init__" not in cls.__dict__:
            cls.__init__ = _storing_init(cls)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = zip(self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in values)})"
