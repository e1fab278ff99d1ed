"""A record is what ``dataclasses`` would have built.

Each case declares one class body twice, once under
:func:`repro._record.record` and once under stdlib ``dataclass``, with
the declaration kinds ``src/`` uses, and compares the two classes: the
identity checks, hashes, reprs, signatures, defaults, frozenness,
pickling and the ``replace``/``asdict`` helpers.  The last test keeps
``dataclasses`` out of ``src/repro``: a record is the one way to
declare a value class there.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import inspect
import pickle
from pathlib import Path

import pytest

from repro._record import asdict, field, record, replace
from repro.errors import FormulaError
from repro.fo.formulas import Exists, TrueF
from repro.fo.instance import Instance
from repro.ltl.formulas import LAtom, LNext, LNot
from repro.runtime.state import GlobalState

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _frozen_slotted(make, fld):
    @make(frozen=True, slots=True)
    class Node:
        """A formula node: a post-init check and a factory default."""

        name: str
        arity: int = 0
        children: tuple = fld(default_factory=tuple)

        def __post_init__(self) -> None:
            if self.arity < 0:
                raise ValueError("negative arity")
    return Node


def _frozen_dict(make, fld):
    @make(frozen=True)
    class Verdict:
        decidable: bool
        theorem: str
        complexity: str | None = None
        reasons: tuple[str, ...] = fld(default_factory=tuple)
    return Verdict


def _mutable(make, fld):
    @make
    class Stats:
        checked: int = 0
        seconds: float = 0.0
        rows: list = fld(default_factory=list)
        phases: dict = fld(default_factory=dict)
    return Stats


def _hidden(make, fld):
    @make(frozen=True, slots=True)
    class Peer:
        name: str
        schema: tuple = fld(repr=False)
        memo: int | None = fld(default=None, init=False, repr=False,
                               compare=False)
    return Peer


def _identity(make, fld):
    @make(frozen=True, slots=True, eq=False)
    class Bound:
        template: str
        valuation: dict
    return Bound


def _empty(make, fld):
    @make(frozen=True, slots=True)
    class Top:
        def __str__(self) -> str:
            return "true"
    return Top


#: Each case: its class maker and constructor arguments for two
#: distinct instances.
CASES = {
    "frozen_slotted": (_frozen_slotted, ("a",), ("b", 2, ("x",))),
    "frozen_dict": (_frozen_dict, (True, "3.4"),
                    (False, "3.7", None, ("lossy",))),
    "mutable": (_mutable, (), (3, 1.5, [1], {"x": 1})),
    "hidden": (_hidden, ("p", (1,)), ("q", (2,))),
    "identity": (_identity, ("t", {}), ("u", {"x": 1})),
    "empty": (_empty, (), ()),
}


def _pair(name):
    maker, *args = CASES[name]
    return (maker(record, field), maker(dataclasses.dataclass,
                                        dataclasses.field), args)


def _compared(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj)
                 if f.compare)


@pytest.mark.parametrize("name", CASES)
def test_equality_hash_and_repr_agree(name):
    rec, dc, (first, second) = _pair(name)
    for args in (first, second):
        r, d = rec(*args), dc(*args)
        assert repr(r) == repr(d)
        assert (r == rec(*args)) == (d == dc(*args))
        assert (r == rec(*second)) == (d == dc(*second))
        assert (r != rec(*args)) == (d != dc(*args))
        # a record never equals another class's instance with its values
        assert r != d and d != r
        if dc.__hash__ is None or dc.__hash__ is object.__hash__:
            assert rec.__hash__ is dc.__hash__
        else:
            assert hash(r) == hash(d) == hash(_compared(d))


@pytest.mark.parametrize("name", CASES)
def test_signatures_agree(name):
    """``inspect.signature`` (hypothesis's ``st.builds`` reads it) shows
    the same parameters; a factory default renders as ``<factory>`` on
    both, although the two sentinels are different objects."""
    rec, dc, _args = _pair(name)
    assert str(inspect.signature(rec)) == str(inspect.signature(dc))
    for p, q in zip(inspect.signature(rec).parameters.values(),
                    inspect.signature(dc).parameters.values(),
                    strict=True):
        assert (p.name, p.kind, p.annotation) == (q.name, q.kind,
                                                   q.annotation)
        if repr(q.default) != "<factory>":
            assert p.default is q.default
    assert (inspect.signature(rec.__init__).return_annotation
            == inspect.signature(dc.__init__).return_annotation)


def test_a_default_factory_runs_for_each_instance():
    rec, dc, _args = _pair("mutable")
    for cls in (rec, dc):
        first, second = cls(), cls()
        assert first.rows is not second.rows
        assert first.phases is not second.phases
        first.rows.append(1)
        assert second.rows == [] and first == cls(rows=[1])


def test_init_repr_and_compare_flags():
    rec, dc, _args = _pair("hidden")
    for cls in (rec, dc):
        assert "memo" not in inspect.signature(cls).parameters
        one = cls("p", (1,))
        assert one.memo is None
        assert "schema" not in repr(one) and "memo" not in repr(one)
        # memo is not compared: set it on one side only
        other = cls("p", (1,))
        object.__setattr__(other, "memo", 7)
        assert one == other and hash(one) == hash(other)
        # schema is compared, although it is not shown
        assert one != cls("p", (2,))


def test_eq_false_keeps_identity():
    rec, dc, _args = _pair("identity")
    for cls in (rec, dc):
        one = cls("t", {})
        assert one != cls("t", {}) and one == one
        assert cls.__hash__ is object.__hash__
        assert cls.__eq__ is object.__eq__


def test_an_explicit_hash_and_getstate_are_kept():
    """``GlobalState`` memoizes its hash in a field that takes no part
    in ``__init__``, ``repr`` or ``==``, and pickles without it; a
    generated ``__hash__`` would leave the memo unset."""
    state = GlobalState(Instance({"R": [("a",)]}), (("q", ()),), "S")
    assert state._hash is None
    h = hash(state)
    assert state._hash == h == hash((state.data, state.queues, "S",
                                     frozenset(), frozenset()))
    assert "_hash" not in repr(state)
    again = pickle.loads(pickle.dumps(state))
    assert again == state and again._hash is None


def test_post_init_runs():
    with pytest.raises(FormulaError, match="no variables"):
        Exists((), TrueF())
    rec, dc, _args = _pair("frozen_slotted")
    for cls in (rec, dc):
        with pytest.raises(ValueError, match="negative arity"):
            cls("a", -1)


@pytest.mark.parametrize("name", ["frozen_slotted", "frozen_dict",
                                  "hidden", "identity"])
def test_frozen_fields_refuse_assignment_and_deletion(name):
    rec, dc, (first, _second) = _pair(name)
    for cls in (rec, dc):
        obj = cls(*first)
        for attribute in [f.name for f in dataclasses.fields(dc)]:
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(obj, attribute, 1)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(obj, attribute)


@pytest.mark.parametrize("name", CASES)
def test_pickle_and_copy_round_trips(name):
    rec, _dc, (first, second) = _pair(name)
    # the class is local: pickle it by reference from this module
    rec.__qualname__ = f"_Pickled{rec.__name__}"
    globals()[rec.__qualname__] = rec
    try:
        for args in (first, second):
            obj = rec(*args)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                again = pickle.loads(pickle.dumps(obj, protocol))
                assert type(again) is rec and repr(again) == repr(obj)
            assert repr(copy.copy(obj)) == repr(obj)
            assert repr(copy.deepcopy(obj)) == repr(obj)
    finally:
        del globals()[rec.__qualname__]


def test_slotted_records_have_no_instance_dict():
    rec, dc, (first, _second) = _pair("frozen_slotted")
    assert rec.__slots__ == dc.__slots__
    assert not hasattr(rec(*first), "__dict__")


@pytest.mark.parametrize("name", CASES)
def test_replace_and_asdict_agree(name):
    rec, dc, (first, second) = _pair(name)
    for args in (first, second):
        r, d = rec(*args), dc(*args)
        assert asdict(r) == dataclasses.asdict(d)
        changes = {f.name: getattr(dc(*second), f.name)
                   for f in dataclasses.fields(dc) if f.init}
        assert repr(replace(r, **changes)) == repr(
            dataclasses.replace(d, **changes))
        assert repr(replace(r)) == repr(dataclasses.replace(d))
    if name == "hidden":
        for helper, obj in ((replace, rec(*first)),
                            (dataclasses.replace, dc(*first))):
            with pytest.raises(ValueError, match="init=False"):
                helper(obj, memo=1)


def test_asdict_recurses_into_nested_records():
    rec, dc, _args = _pair("frozen_slotted")
    r = rec("a", 1, (rec("b"), [rec("c")]))
    d = dc("a", 1, (dc("b"), [dc("c")]))
    assert asdict(r) == dataclasses.asdict(d)


def test_the_class_check_separates_same_shaped_records():
    """Two records with the same field names never compare equal."""
    p = LAtom("p")
    assert LNext(p) != LNot(p) and LNot(p) != LNext(p)
    assert LNot(p) == LNot(LAtom("p"))


def test_no_module_under_src_imports_dataclasses():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
