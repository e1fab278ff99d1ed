"""Terms of first-order formulas: variables and constants.

The data domain of the paper is an arbitrary infinite set of values.  We
represent values as Python strings or integers (hashable, orderable within a
type).  A :class:`Var` is a named placeholder; a :class:`Const` wraps a domain
value.
"""

from __future__ import annotations

from .._record import record
from typing import Union

#: A domain value.  Strings and ints cover every construction in the paper.
Value = Union[str, int]


@record(frozen=True, slots=True)
class Var:
    """A first-order variable, identified by name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].isalpha() and self.name[0] != "_":
            raise ValueError(f"invalid variable name: {self.name!r}")

    def __str__(self) -> str:
        return self.name


@record(frozen=True, slots=True)
class Const:
    """A constant term holding a domain value."""

    value: Value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f'"{self.value}"'
        return str(self.value)


#: A term is a variable or a constant.
Term = Union[Var, Const]


def term_sort_key(term: Term) -> tuple:
    """Deterministic ordering key for mixed collections of terms."""
    if isinstance(term, Var):
        return (0, term.name)
    return (1, str(type(term.value).__name__), str(term.value))


def value_sort_key(value: Value) -> tuple:
    """Deterministic ordering key for mixed str/int domain values."""
    return (type(value).__name__, str(value))


def is_value(obj: object) -> bool:
    """Return True iff *obj* is a legal domain value."""
    return isinstance(obj, (str, int)) and not isinstance(obj, bool)
