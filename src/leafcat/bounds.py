"""The one range check behind every size bound, and the one value-class base."""


def check_range(name: str, value: int, low: int, high: int) -> None:
    """Reject `value` outside low..high, by name, before any work starts."""
    if not low <= value <= high:
        raise ValueError(f"{name}={value} outside {low}..{high}")


class Record:
    """An immutable value.  A subclass names its fields in `_fields`, passes
    them by keyword to `Record.__init__` once, and keeps only its validation.

    Records are equal, and hash alike, when their classes are the same and
    their field values are, compared as one tuple stored at construction; an
    attribute a subclass caches in `__dict__` does not count."""

    _fields: tuple[str, ...] = ()

    def __init__(self, **fields):
        fields["_key"] = tuple(fields.values())
        # one dict merged into the empty __dict__ is copied whole; filling
        # __dict__ key by key left attribute reads about twice as slow
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"
