"""Frozen value objects from ``__slots__`` alone: the record decorator of
the standard library imports :mod:`inspect`, about half a cold start."""


class Record:
    """Base of the package's frozen value types.  A subclass names its fields,
    in constructor order, in ``__slots__`` and passes their values to
    ``Record.__init__``; equality, hashing and repr go by the field tuple,
    and assigning or deleting a field afterwards raises AttributeError.
    ``_setters`` holds each slot descriptor's ``__set__``, in field order."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} takes {len(setters)} fields, got {len(values)}")
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
