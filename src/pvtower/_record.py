"""Immutable value records whose methods are closures, not generated source.

:func:`record` gives a class with annotated fields positional or keyword
construction with class-level defaults and ``__post_init__``, equality of
the exact class and field tuple with a matching hash, a repr, and
AttributeError on assignment, without compiling code or loading ``inspect``
at start-up.  A class may keep its own ``__init__`` (storing fields with
:data:`set_field`) or ``__eq__``.
"""

from operator import attrgetter

# Stores a field past __setattr__ without building an instance dict, which slows reads.
set_field = object.__setattr__


def _immutable(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def record(cls):
    """Make ``cls`` an immutable value type over its annotated fields, in order."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")
    fields_of = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            given = {**defaults, **dict(zip(names, args)), **kwargs}
            wrong = len(args) > len(names) or kwargs.keys() & names[: len(args)]
            if wrong or given.keys() != set(names):
                raise TypeError(f"{cls.__name__}() takes the fields {names}")
            args = [given[name] for name in names]
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields_of(self) == fields_of(other)
        return NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    cls.__init__ = cls.__dict__.get("__init__", __init__)
    cls.__eq__ = cls.__dict__.get("__eq__", __eq__)
    cls.__hash__ = lambda self: hash(fields_of(self))
    cls.__repr__ = __repr__
    cls.__setattr__ = cls.__delattr__ = _immutable
    return cls
