"""The base of the package's immutable record classes."""


class Frozen:
    """A ``__slots__`` record whose ``__init__`` sets each field once with
    ``object.__setattr__``; any later assignment or deletion raises
    ``AttributeError``.  Equality and hashing stay by identity unless a
    subclass defines them on its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: "
                             "the record is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: "
                             "the record is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
