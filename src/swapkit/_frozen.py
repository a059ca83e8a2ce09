"""The base of the package's immutable record classes.

A record lists its fields once, in its class's ``__slots__``; ``Frozen``
builds it from them.  Records compare by identity unless they derive from
``Value``, which compares and hashes them by class and fields.  The value
records are those used as cache keys (``BoolAlg`` keys the cached snapshot
universes and full swap structures) or compared by callers and tests
(homomorphisms, multialgebra maps, signatures, and Hilbert proofs and their
steps).
"""

from operator import attrgetter


class Frozen:
    """A ``__slots__`` record whose fields are set once, when it is built;
    any later assignment or deletion raises ``AttributeError``.

    ``Frozen(*values, **named)`` binds the class's own ``__slots__`` in
    order, positionally or by name.  A subclass with derived fields or
    defaults defines an ``__init__`` that ends in ``super().__init__``."""

    __slots__ = ()

    def __init__(self, *values, **named):
        fields = self.__slots__
        if len(values) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} "
                            f"fields {fields}, got {len(values)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        for name in fields[len(values):]:
            if name not in named:
                raise TypeError(f"{type(self).__name__} is missing field "
                                f"{name!r}")
            object.__setattr__(self, name, named.pop(name))
        if named:  # names already bound by position, or not fields at all
            name = next(iter(named))
            problem = (f"got field {name!r} twice" if name in fields
                       else f"has no field {name!r}")
            raise TypeError(f"{type(self).__name__} {problem}")

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

    def __reduce__(self):
        """Copy and pickle a record as its class and field values."""
        return _rebuild, (type(self), tuple(getattr(self, name)
                                            for name in self.__slots__))


def _rebuild(cls: type, values: tuple) -> Frozen:
    """The record of class ``cls`` with these field values, bound by
    ``Frozen.__init__`` whatever the class's own constructor takes."""
    record = object.__new__(cls)
    Frozen.__init__(record, *values)
    return record


class Value(Frozen):
    """A record equal to another of its class with equal fields, and hashed
    by its fields (so it is unhashable when a field is)."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))
