"""Value classes without generated code: the part of ``dataclasses`` billzeta uses.

The stdlib decorator writes each class's ``__init__``, ``__eq__``,
``__hash__``, ``__repr__`` and frozen ``__setattr__``/``__delattr__`` as
source text and ``exec``s it at every import: about 0.8 ms a class on
Python 3.11.  Here the same methods are closures over the class's field
list, made from the few function bodies below, so decorating a class
compiles nothing.

What is covered, with the stdlib's behaviour:

* fields are the class's own annotations, in order, taken positionally or
  by keyword; an annotation with a value has that default;
* ``field(default=, default_factory=, init=False, repr=False,
  compare=False)``;
* ``__post_init__`` runs after the fields are set;
* ``eq=True`` (the default) compares the ``compare`` fields of two
  instances of the same class as a tuple; ``eq=False`` keeps identity
  ``==`` and ``hash``;
* ``frozen=True``: assignment and deletion raise ``AttributeError``, and
  with ``eq`` the instance hashes its ``compare`` fields; a mutable class
  with ``eq`` is unhashable.

Nothing else is: no inherited fields, ``InitVar``, ``ClassVar``, slots,
ordering, or ``dataclasses.fields``/``asdict``/``replace``.
"""

_MISSING = object()


class _Field:
    __slots__ = ("default", "default_factory", "init", "repr", "compare")

    def __init__(self, default=_MISSING, default_factory=_MISSING, init=True, repr=True, compare=True):
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


def field(*, default=_MISSING, default_factory=_MISSING, init=True, repr=True, compare=True):
    """Per-field options, as ``dataclasses.field``."""
    return _Field(default, default_factory, init, repr, compare)


def dataclass(cls=None, /, *, frozen=False, eq=True):
    """Give cls its field methods; usable bare or as ``dataclass(frozen=..., eq=...)``."""
    if cls is None:
        return lambda cls: _build(cls, frozen, eq)
    return _build(cls, frozen, eq)


def _build(cls, frozen: bool, eq: bool):
    specs = []
    for name in cls.__dict__.get("__annotations__", {}):
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, _Field):
            spec = _Field(default=spec)
        elif spec.default is _MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        specs.append((name, spec))

    title = cls.__qualname__
    init_names = tuple(name for name, spec in specs if spec.init)
    required = [name for name, spec in specs
                if spec.init and spec.default is _MISSING and spec.default_factory is _MISSING]
    defaults = [(name, spec.default) for name, spec in specs if spec.default is not _MISSING]
    factories = [(name, spec.default_factory) for name, spec in specs
                 if spec.default_factory is not _MISSING]
    repr_names = [name for name, spec in specs if spec.repr]
    compare_names = [name for name, spec in specs if spec.compare]
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if len(args) > len(init_names):
            raise TypeError(f"{title}() takes at most {len(init_names)} positional arguments "
                            f"({len(args)} given)")
        values = dict(zip(init_names, args))
        for name, value in kwargs.items():
            if name not in init_names:
                raise TypeError(f"{title}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{title}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in required if name not in values]
        if missing:
            raise TypeError(f"{title}() missing required arguments: {', '.join(map(repr, missing))}")
        for name, default in defaults:
            values.setdefault(name, default)
        for name, factory in factories:
            if name not in values:
                values[name] = factory()
        self.__dict__.update(values)
        if post_init:
            self.__post_init__()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in repr_names)
        return f"{self.__class__.__qualname__}({shown})"

    cls.__init__ = __init__
    cls.__repr__ = __repr__
    if eq:
        def key(self):
            return tuple(getattr(self, name) for name in compare_names)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        cls.__eq__ = __eq__
        cls.__hash__ = __hash__ if frozen else None
    if frozen:
        def __setattr__(self, name, value):
            raise AttributeError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise AttributeError(f"cannot delete field {name!r}")

        cls.__setattr__ = __setattr__
        cls.__delattr__ = __delattr__
    return cls
