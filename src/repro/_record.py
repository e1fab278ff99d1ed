"""Value classes: the ``record`` class decorator.

``record`` builds what ``dataclasses.dataclass`` builds for the
declarations this package makes: ``frozen``, ``slots``, ``eq=False``,
and per field a plain default or a :func:`field` with a ``default`` or
``default_factory`` and the ``init``, ``repr`` and ``compare`` flags.
A method the class body defines itself (``GlobalState.__hash__``, its
``__getstate__``) is kept, as ``dataclasses`` keeps it.

Only the three methods a run calls all the time, ``__init__``,
``__eq__`` and ``__hash__``, are compiled, with the bodies
``dataclasses`` writes, in one ``exec`` per class.  ``__repr__``, a
frozen class's ``__setattr__`` and ``__delattr__``, and a frozen
slotted class's pickling are closures that compile nothing.
``dataclasses`` compiles six methods in six ``exec`` calls per class
and loads ``inspect`` (with ``ast``, ``dis`` and ``tokenize``), a cost
every cold ``repro verify`` would pay at import time.

Not supported, because nothing here needs them: fields inherited from
a base record, ``ClassVar``, ``InitVar`` and ``KW_ONLY`` annotations,
``order``, ``unsafe_hash``, ``weakref_slot``, ``__match_args__`` and a
repr of a record that contains itself.  A class without a docstring
keeps ``__doc__ = None``, where ``dataclasses`` writes its signature.
"""

from __future__ import annotations

import sys
from typing import Any


class FrozenInstanceError(AttributeError):
    """Assigning to or deleting a field of a frozen record."""


class _Marker:
    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return self.text


_MISSING = _Marker("<missing>")
#: The default of a ``default_factory`` field's ``__init__`` parameter;
#: ``inspect.signature`` shows it as ``<factory>``, as for a dataclass.
_FACTORY = _Marker("<factory>")


class Field:
    """One field of a record: what :func:`field` declared, and the
    ``name`` and ``type`` (its annotation) the class gives it."""

    __slots__ = ("name", "type", "default", "default_factory", "init",
                 "repr", "compare")

    def __init__(self, default=_MISSING, default_factory=_MISSING,
                 init=True, repr=True, compare=True) -> None:
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


def field(*, default=_MISSING, default_factory=_MISSING, init: bool = True,
          repr: bool = True, compare: bool = True) -> Any:
    """A field declaration, as ``dataclasses.field`` takes it."""
    return Field(default, default_factory, init, repr, compare)


def record(cls=None, /, *, frozen: bool = False, slots: bool = False,
           eq: bool = True):
    """Make *cls* a value class, as ``dataclasses.dataclass`` with the
    same arguments would; use bare or with arguments."""
    def wrap(cls):
        return _build(cls, frozen, slots, eq)
    return wrap if cls is None else wrap(cls)


def _build(cls, frozen: bool, slots: bool, eq: bool):
    body = cls.__dict__
    fields = []
    for name, annotation in body.get("__annotations__", {}).items():
        declared = body.get(name, _MISSING)
        f = declared if isinstance(declared, Field) else Field(declared)
        f.name, f.type = name, annotation
        fields.append(f)
        if isinstance(declared, Field) and not slots:
            # the class attribute holds the plain default, if any
            if f.default is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
    fields = tuple(fields)
    own = set(body)
    explicit_hash = "__hash__" in own and not (
        body["__hash__"] is None and "__eq__" in own)
    if slots:
        cls = _slotted(cls, fields)
    cls.__record_fields__ = fields

    init, eq_fn, hash_fn = _compile(
        cls, fields, frozen, slots,
        eq and "__eq__" not in own,
        eq and frozen and not explicit_hash)
    methods = {"__init__": init, "__repr__": _repr(fields)}
    if eq_fn is not None:
        methods["__eq__"] = eq_fn
    if frozen:
        methods["__setattr__"], methods["__delattr__"] = _frozen(cls, fields)
    for name, method in methods.items():
        if name not in own:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    if hash_fn is not None:
        hash_fn.__qualname__ = f"{cls.__qualname__}.__hash__"
        cls.__hash__ = hash_fn
    elif eq and not frozen and not explicit_hash:
        cls.__hash__ = None
    if frozen and slots:
        for name, method in (("__getstate__", _getstate),
                             ("__setstate__", _setstate)):
            if name not in own:
                setattr(cls, name, method)
    return cls


def _slotted(cls, fields: tuple[Field, ...]):
    """*cls* rebuilt with a slot per field, as ``__slots__`` can only be
    given when a class is created."""
    body = dict(cls.__dict__)
    body["__slots__"] = tuple(f.name for f in fields)
    for f in fields:
        body.pop(f.name, None)
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    rebuilt = type(cls)(cls.__name__, cls.__bases__, body)
    rebuilt.__qualname__ = cls.__qualname__
    return rebuilt


def _compile(cls, fields: tuple[Field, ...], frozen: bool, slots: bool,
             with_eq: bool, with_hash: bool):
    """``__init__`` and, if asked, ``__eq__`` and ``__hash__``, compiled
    in one ``exec`` with the bodies ``dataclasses`` writes."""
    closure = {"__record_setattr__": object.__setattr__,
               "__record_factory__": _FACTORY}
    params, lines = ["self"], []
    for f in fields:
        default = f"__record_dflt_{f.name}__"
        if f.default_factory is not _MISSING:
            closure[default] = f.default_factory
            value = f"{default}()"
            if f.init:
                value += f" if {f.name} is __record_factory__ else {f.name}"
                params.append(f"{f.name}=__record_factory__")
        elif f.init:
            value = f.name
            if f.default is _MISSING:
                params.append(f.name)
            else:
                closure[default] = f.default
                params.append(f"{f.name}={default}")
        elif slots and f.default is not _MISSING:
            closure[default] = f.default
            value = default
        else:
            continue        # the class attribute holds the default
        lines.append(f"__record_setattr__(self,{f.name!r},{value})"
                     if frozen else f"self.{f.name}={value}")
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    source = [f"def __init__({','.join(params)}):",
              *(f" {line}" for line in lines or ["pass"])]
    compared = [f.name for f in fields if f.compare]
    mine = f"({''.join(f'self.{n},' for n in compared)})"
    if with_eq:
        theirs = f"({''.join(f'other.{n},' for n in compared)})"
        source += ["def __eq__(self,other):",
                   " if other.__class__ is self.__class__:",
                   f"  return {mine}=={theirs}",
                   " return NotImplemented"]
    if with_hash:
        source += ["def __hash__(self):", f" return hash({mine})"]
    made = ("__init__", "__eq__" if with_eq else "None",
            "__hash__" if with_hash else "None")
    text = (f"def __create_fn__({','.join(closure)}):\n"
            + "".join(f" {line}\n" for line in source)
            + f" return {','.join(made)}")
    module = sys.modules.get(cls.__module__)
    namespace: dict = {}
    exec(text, vars(module) if module is not None else {}, namespace)
    init, eq_fn, hash_fn = namespace["__create_fn__"](**closure)
    init.__annotations__ = {f.name: f.type for f in fields if f.init}
    init.__annotations__["return"] = None
    return init, eq_fn, hash_fn


def _repr(fields: tuple[Field, ...]):
    names = [f.name for f in fields if f.repr]

    def __repr__(self) -> str:
        inner = ", ".join([f"{name}={getattr(self, name)!r}"
                           for name in names])
        return f"{self.__class__.__qualname__}({inner})"
    return __repr__


def _frozen(cls, fields: tuple[Field, ...]):
    names = frozenset(f.name for f in fields)

    def __setattr__(self, name: str, value) -> None:
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name: str) -> None:
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)
    return __setattr__, __delattr__


def _getstate(self) -> list:
    # a frozen slotted record has no __dict__ to pickle
    return [getattr(self, f.name) for f in self.__record_fields__]


def _setstate(self, state: list) -> None:
    for f, value in zip(self.__record_fields__, state):
        object.__setattr__(self, f.name, value)


def replace(obj, /, **changes):
    """A copy of the record *obj* with *changes*, as
    ``dataclasses.replace`` makes it."""
    for f in obj.__record_fields__:
        if not f.init:
            if f.name in changes:
                raise ValueError(f"field {f.name} is declared with "
                                 "init=False, it cannot be specified "
                                 "with replace()")
        elif f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


def asdict(obj):
    """The record *obj* as a dict, recursing into records, lists, tuples
    and dicts, as ``dataclasses.asdict`` does; other values are shared,
    not deep-copied (a record holds immutable values)."""
    if hasattr(type(obj), "__record_fields__"):
        return {f.name: asdict(getattr(obj, f.name))
                for f in obj.__record_fields__}
    if isinstance(obj, (list, tuple)):
        return type(obj)(asdict(value) for value in obj)
    if isinstance(obj, dict):
        return type(obj)((asdict(key), asdict(value))
                         for key, value in obj.items())
    return obj
