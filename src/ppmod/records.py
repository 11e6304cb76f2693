"""Immutable records: the part of ``dataclasses`` that ppmod uses.

``@dataclass`` writes each class's ``__init__``, ``__repr__`` and
``__setattr__`` as source text and ``exec``s it, about 0.8 ms a class,
and ppmod declares some thirty result classes, so a CLI command would
spend about 22 ms of its import on code generation.  :func:`record`
builds the same behaviour from closures over the field names instead,
and nothing in ppmod imports ``dataclasses``.

A record's fields are the annotated names over its MRO, bases first.  A
class attribute is the default of its field.  ``__init__`` takes the
fields by position or keyword, sets them with ``object.__setattr__`` and
calls ``__post_init__`` when the class has one.  Assigning or deleting
an attribute raises :class:`FrozenRecordError`.  ``__repr__`` is in the
dataclass format unless the class defines its own, and
``record(eq=True)`` compares and hashes the tuple of field values.
"""

from __future__ import annotations

from types import MemberDescriptorType

_NO_DEFAULT = object()


class FrozenRecordError(AttributeError):
    """An attempt to assign or delete an attribute of a record."""


def record(cls=None, *, eq: bool = False):
    """Class decorator: a frozen record of the annotated fields; ``eq=True`` adds
    field-tuple ``__eq__`` and ``__hash__``.  Usable bare or called."""

    def decorate(cls):
        return _build(cls, eq)

    return decorate if cls is None else decorate(cls)


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes``; ``__post_init__`` runs again."""
    values = {name: getattr(obj, name) for name in type(obj).__record_fields__}
    values.update(changes)
    return type(obj)(**values)


def _build(cls, eq: bool):
    names: list[str] = []
    for klass in reversed(cls.__mro__):
        names += [n for n in vars(klass).get("__annotations__", {}) if n not in names]
    names = tuple(names)
    defaults = {}
    for name in names:
        value = getattr(cls, name, _NO_DEFAULT)
        # a declared slot is a member descriptor on the class, not a default
        if value is not _NO_DEFAULT and not isinstance(value, MemberDescriptorType):
            defaults[name] = value
    arity = len(names)
    post_init = hasattr(cls, "__post_init__")
    set_field = object.__setattr__

    def bind(args, kwargs) -> list:
        if len(args) > arity:
            raise TypeError(
                f"{cls.__qualname__}() takes {arity} arguments but {len(args)} were given"
            )
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        for name in kwargs:
            what = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {what} argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init:
            self.__post_init__()

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all_fields(self) == all_fields(other)

    def __hash__(self):
        return hash(all_fields(self))

    def all_fields(obj) -> tuple:
        return tuple([getattr(obj, name) for name in names])

    methods = [__init__, __setattr__, __delattr__]
    if "__repr__" not in vars(cls):
        methods.append(__repr__)
    if eq:
        methods += [__eq__, __hash__]
    for fn in methods:
        setattr(cls, fn.__name__, fn)
    cls.__record_fields__ = names
    return cls
