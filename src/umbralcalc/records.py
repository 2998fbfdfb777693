"""Immutable value records: the AST nodes, tokens and result types.

A subclass of :class:`Record` lists its fields in ``__slots__`` and gets what
a frozen dataclass would give it, built once here rather than generated per
class at import (the ``dataclasses`` module and what it imports cost the CLI
more start-up time than the rest of the package):

* construction by position or keyword, with ``_defaults`` mapping a field to
  a factory called for each instance that omits it (``int`` for 0, ``dict``
  for a fresh dict), then a ``__post_init__`` hook;
* ``==`` only between instances of the same class with equal fields, and
  ``hash`` of the field tuple;
* the ``Name(field=value, ...)`` repr;
* no assignment or deletion of a field after construction (``AttributeError``).

The fields are those of the base classes' ``__slots__`` first, then the
class's own.
"""

from __future__ import annotations


class Record:
    """Base of the frozen, slotted value records."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        # __setattr__ refuses every assignment, so __init__ writes each field
        # through its slot descriptor.
        cls._setters = tuple(getattr(cls, field).__set__ for field in cls._fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._complete(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        self.__post_init__()

    @classmethod
    def _complete(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field's value: the positional ones, then each later field's
        keyword argument or default."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
        values = list(args)
        for field in cls._fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field]())
            else:
                raise TypeError(f"{cls.__name__} is missing field {field!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got an unexpected or repeated field {next(iter(kwargs))!r}")
        return tuple(values)

    def __post_init__(self) -> None:
        """Check or normalise the fields; a subclass that changes one uses
        ``object.__setattr__``."""

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
