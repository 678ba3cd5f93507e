"""Immutable value records that generate no code.

``Record`` gives a class what the package used ``@dataclass(frozen=True)``
for, without importing ``dataclasses`` (which pulls in ``inspect``) or
compiling a generated ``__init__``, ``__eq__`` and ``__repr__`` per class;
together those took about 35 ms of every cold start.
"""

from __future__ import annotations


class Record:
    """An immutable record whose fields are its class body's annotations.

    Fields are read, in order, from the annotations of each class body,
    which are never evaluated; a field's default is its class attribute.
    The constructor binds positional and keyword arguments to the fields
    and then runs ``__post_init__``, which may check them or normalise
    them through ``object.__setattr__``; assigning or deleting an
    attribute afterwards raises ``AttributeError``.  A class built once
    per enumerated record may instead define an ``__init__`` that checks
    its arguments and fills ``self.__dict__`` itself, which skips the
    cost of binding them generically.

    Records of one class are equal, and hash alike, when their fields are
    equal, except the fields named in the class's ``_derived``, which are
    functions of the others.  Fields whose names start with an underscore
    are left out of ``repr``.  A class declared with ``eq=False`` keeps
    identity equality and hashing, so caches keyed on it stay cheap.
    """

    _fields = ()
    _derived = ()
    _compared = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(vars(cls).get("__annotations__", ()))
        cls._compared = tuple(name for name in cls._fields if name not in cls._derived)
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        fields, values = self._fields, self.__dict__
        values.update(zip(fields, args))
        if len(args) > len(fields) or any(
                name not in fields or name in values for name in kwargs):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}, "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        values.update(kwargs)
        for name in fields:
            if name not in values:
                if not hasattr(type(self), name):
                    raise TypeError(f"{type(self).__name__} is missing field {name!r}")
                values[name] = getattr(type(self), name)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if not name.startswith("_"))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
