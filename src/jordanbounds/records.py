"""One base for the engine's immutable value records.

A subclass names its fields in `_fields` and lists them (and any field it
derives once) in `__slots__`.  It takes its field values in order from
the base's `__init__`, or, to validate them, sets them in its own
`__init__` with `object.__setattr__`.  The base gives what a frozen
dataclass would, without importing `dataclasses` on the verbs' path.
"""


class Record:
    """Equal only to a record of its own class with equal fields, hashed as
    the tuple of its fields (which fixes set and dict order), shown as the
    dataclass repr, and immutable after `__init__`."""

    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__name__} takes {len(self._fields)} values, "
                            f"got {len(values)}")
        for f, v in zip(self._fields, values):
            object.__setattr__(self, f, v)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, *a):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__
