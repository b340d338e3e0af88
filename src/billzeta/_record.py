"""Value classes without generated code: the part of ``dataclasses`` billzeta uses.

The stdlib decorator writes each class's ``__init__``, ``__eq__``,
``__hash__``, ``__repr__`` and frozen ``__setattr__``/``__delattr__`` as
source text and ``exec``s it at every import: about 0.8 ms a class on
Python 3.11.  Here the same methods are closures over the class's field
list, made from the few function bodies below, so decorating a class
compiles nothing.

Every record is a frozen list of fields, with the stdlib's behaviour:

* fields are the class's own annotations, in order, taken positionally or
  by keyword; an annotation with a class value has that value as default;
* ``__post_init__`` runs after the fields are set (it sets a field, or
  anything else, with ``object.__setattr__``);
* assignment and deletion raise ``AttributeError``;
* ``eq=True`` (the default) compares the fields of two instances of the
  same class as a tuple and hashes them; ``eq=False`` keeps identity
  ``==`` and ``hash``.

Nothing else is: no ``field()``, mutable classes, inherited fields,
``InitVar``, ``ClassVar``, slots, ordering, or
``dataclasses.fields``/``asdict``/``replace``.
"""


def dataclass(cls=None, /, *, eq=True):
    """Give cls its field methods; usable bare or as ``dataclass(eq=False)``."""
    if cls is None:
        return lambda cls: _build(cls, eq)
    return _build(cls, eq)


def _build(cls, eq: bool):
    title = cls.__qualname__
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = [(name, cls.__dict__[name]) for name in names if name in cls.__dict__]
    required = [name for name in names if name not in cls.__dict__]
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(f"{title}() takes at most {len(names)} positional arguments ({len(args)} given)")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{title}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{title}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in required if name not in values]
        if missing:
            raise TypeError(f"{title}() missing required arguments: {', '.join(map(repr, missing))}")
        for name, default in defaults:
            values.setdefault(name, default)
        self.__dict__.update(values)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__init__ = __init__
    cls.__repr__ = __repr__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    if eq:
        def key(self):
            return tuple(getattr(self, name) for name in names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
    return cls
