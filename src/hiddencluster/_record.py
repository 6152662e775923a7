"""Base class of the package's immutable value records.

A subclass lists its fields as class annotations; a class attribute of the
same name is that field's default.  This base turns the annotations into
``_fields`` and gives every record the frozen guard, ``==``, ``hash``,
``repr`` and ``__match_args__`` of a frozen dataclass, without importing
``dataclasses``.

A record that checks its arguments writes its own ``__init__`` and stores
each field with :data:`set_field`.  Every other record gets the constructor
of a frozen dataclass: it takes each field by position or by name, in
declaration order, and stores it with :data:`set_field`.  That constructor
is compiled once per class from the field names, as
``collections.namedtuple`` compiles its ``__new__``, so a call runs the
same ``set_field`` calls a hand-written one would.
"""

from operator import attrgetter

#: Stores one field past the guard.  The generic setter keeps the fields in
#: the instance's compact inline storage, as assignment in a plain class does.
set_field = object.__setattr__


def _storing_init(cls: type):
    """The ``__init__`` that stores each field of ``cls``, with its class-attribute defaults."""
    defaults = []
    for name in cls._fields:
        if name in cls.__dict__:
            defaults.append(cls.__dict__[name])
        elif defaults:
            raise TypeError(f"field {name!r} of {cls.__name__} without a default follows one with")
    stores = "".join(f"\n    set_field(self, {name!r}, {name})" for name in cls._fields)
    namespace = {"set_field": set_field}
    exec(f"def __init__(self, {', '.join(cls._fields)}):{stores}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults) or None
    init.__module__, init.__qualname__ = cls.__module__, f"{cls.__qualname__}.__init__"
    return init


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = fields = tuple(cls.__dict__.get("__annotations__", ()))
        if len(fields) < 2:
            raise TypeError(f"a record needs at least two fields, {cls.__name__} has {fields}")
        # the field tuple in one C call (attrgetter of one name would return a bare value)
        cls._values = attrgetter(*fields)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _storing_init(cls)

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
