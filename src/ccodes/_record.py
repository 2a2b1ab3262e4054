"""The immutable record base of the package's value classes.

It gives what a frozen dataclass would, without importing ``dataclasses``
(and through it ``inspect``), which with its generated code was about half
of the package's start-up: a positional constructor over ``__slots__`` that
then runs the subclass's ``__post_init__`` checks, equality and hashing over
the field tuple, read by one C-level ``attrgetter`` per class, assignment and
deletion refused, pickling and copying through the constructor, and the
dataclass repr.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init__(self, *values) -> None:
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments "
                            f"({', '.join(fields)}), got {len(values)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)  # the field tuple: every record has two or more

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key(self)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"
