"""Immutable value classes, with methods written once for all of them.

Generating the methods of each class, as the standard library's record
decorator does, imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and ``exec``s code for every class: a cost every CLI call paid
at start-up. ``Frozen`` gives the API's value classes the same construction,
repr, equality, hash and immutability without either.

The argument rules that many modules share are written here once: an int
that is not a bool (``_is_int``, ``_check_int``, ``_index``), a number that
is not a bool (``_is_number``), a collection that is not a bare str or
bytes (``_is_collection``), an ordered vector, a collection that is not a
set or a mapping either (``_is_vector``), and JSON that is malformed or
nested too deep to parse (``_loads``). Each caller keeps its own exception
class and message. The rule that a bit vector holds ``params.k`` bits is written once
in ``rappor._check_length``.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Iterable, Mapping, Set
from typing import Callable


def _is_int(value) -> bool:
    """An int, but not a bool: bool is an int subclass in Python, and True
    is no count, size or seed."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """An int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_collection(value) -> bool:
    """Iterable, but not a bare str or bytes, whose characters or byte
    values would be read as the items."""
    return isinstance(value, Iterable) and not isinstance(value, (str, bytes))


def _is_vector(value) -> bool:
    """A collection read in its own order, one item per position: not a set,
    whose order is arbitrary, nor a mapping, which iterates its keys."""
    return _is_collection(value) and not isinstance(value, (Set, Mapping))


def _check_int(name: str, value, error: type[Exception] = TypeError) -> None:
    """Raise ``error`` with the message ``<name> must be an integer, got
    <value!r>`` unless value is an int and not a bool: a bound of 2.5 writes
    a cell that no CSV reads back, and p=True is no window."""
    if not _is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")


def _loads(text, error: type[Exception], what: str):
    """``json.loads(text)``; malformed JSON, or JSON nested too deep to
    parse, raises ``error`` with the message ``<what><the parser's message>``,
    so a caller reports it as bad data that names the input."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what}{exc}") from exc


def _index(value) -> int:
    """``operator.index(value)``, which takes numpy integers too, except that
    a bool raises TypeError as a float does: True is no index or bound."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool, not an integer")
    return operator.index(value)


class Frozen:
    """Base of an immutable value class.

    A subclass's fields are its own annotations, in order, except those
    written ``ClassVar[...]``; a class attribute of the same name is that
    field's default. ``__init__`` binds positional and keyword arguments to
    the fields (a missing, unexpected or repeated one raises TypeError) and
    then calls ``__post_init__`` if the class has one, which may set
    attributes through ``object.__setattr__``. Equality holds only between
    instances of the exact same class with equal field tuples, the hash is
    that of the field tuple, the repr is ``Name(field=value, ...)``, and
    assigning or deleting an attribute raises AttributeError.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        annotations = cls.__dict__.get("__annotations__", {})
        cls._fields = fields = tuple(
            name for name, hint in annotations.items()
            if not str(hint).startswith(("ClassVar", "typing.ClassVar")))
        astuple = _field_tuple(fields)
        cls._astuple = staticmethod(astuple)

        # Closures over the class's own field reader: equivalence_classes
        # hashes a generalized cell, and compares it with equal ones, per row.
        def __eq__(self, other):
            if type(other) is not type(self):
                return NotImplemented
            return astuple(self) == astuple(other)

        cls.__eq__ = __eq__
        cls.__hash__ = lambda self: hash(astuple(self))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        # object.__setattr__ rather than __dict__.update: an instance whose
        # __dict__ was never read keeps CPython's faster attribute loads
        for name, value in zip(cls._fields, args):
            object.__setattr__(self, name, value)
        post_init = getattr(cls, "__post_init__", None)
        if post_init is not None:
            post_init(self)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The arguments as one value per field, in field order; a bad call
        raises the TypeError a generated ``__init__`` would."""
        call, fields = f"{cls.__qualname__}.__init__()", cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{call} takes {len(fields) + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{call} got an unexpected keyword argument {key!r}")
            if key in fields[: len(args)]:
                raise TypeError(f"{call} got multiple values for argument {key!r}")
        defaults = {**{f: cls.__dict__[f] for f in fields if f in cls.__dict__}, **kwargs}
        missing = [f for f in fields[len(args):] if f not in defaults]
        if missing:
            raise TypeError(f"{call} missing {len(missing)} required positional argument"
                            f"{'s' * (len(missing) > 1)}: {', '.join(map(repr, missing))}")
        return (*args, *(defaults[f] for f in fields[len(args):]))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _field_tuple(fields: tuple) -> Callable:
    """The function from an instance to its field tuple; attrgetter reads
    the fields in C."""
    if not fields:
        return lambda self: ()
    get = operator.attrgetter(*fields)
    return get if len(fields) > 1 else lambda self: (get(self),)
