"""The two kinds of value type, built by plain class statements.

A Value subclass also subclasses a collections.namedtuple of its fields,
and validates them, where they need it, in its own __new__.  It is
immutable, equal only to a value of its own type with equal fields, hashed
as the tuple of its fields, and shown as `Name(field=value, ...)`.  Another
tuple, a plain one or a value of another type, is never equal to it.

A Record subclass lists its fields in __slots__ and sets them in its
__init__.  It is mutable, refuses new attributes, is equal to a record of
its own type with equal fields, is unhashable, and is shown the same way.

Either kind copies with changed fields by `_replace(**changes)`, which
builds the copy through the constructor and so through its validation.
"""


def check_integer(name: str, value) -> None:
    """A bool or a float is not read as a count: True would pass as 1."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, not {value!r}")


class Value:
    """Mixin of the immutable value types; see the module docstring."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # tuple.__eq__, tried next, would compare the fields alone
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, skips __new__
        return cls(*iterable)


class Record:
    """Base of the mutable record types; see the module docstring."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def _replace(self, **changes):
        return self.__class__(**{**dict(zip(self.__slots__, self._values())),
                                 **changes})
