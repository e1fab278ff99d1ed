"""Relational schemas for peers and compositions.

A peer schema (Definition 2.1) partitions its relation symbols into
database, state, input, action, in-queue and out-queue relations, with queue
relations further split into *flat* and *nested*.  The schema also carries
the derived symbols the paper introduces:

* ``prev_I`` for every input relation ``I`` (the most recent non-empty input);
* the propositional queue state ``empty_Q`` for every in-queue ``Q``;
* the propositional error flag ``error_Q`` for every flat out-queue ``Q``
  under the *deterministic send* semantics of Theorem 3.8;
* the propositional ``received_Q`` shorthand of Section 5 for in-queues; and
* the propositional ``move_W`` / ``move_ENV`` symbols of the composition
  schema (Section 3).

Relation names must be unique within a scope.  Composition schemas qualify
every peer relation as ``Peer.relation``.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Mapping

from .._record import record
from ..errors import SchemaError


class RelationKind(enum.Enum):
    """The part of a peer/composition schema a relation belongs to."""

    DATABASE = "database"
    STATE = "state"
    INPUT = "input"
    ACTION = "action"
    IN_QUEUE = "in_queue"
    OUT_QUEUE = "out_queue"
    PREV_INPUT = "prev_input"
    QUEUE_STATE = "queue_state"      # empty_Q, propositional
    ERROR_FLAG = "error_flag"        # error_Q, propositional (Theorem 3.8)
    RECEIVED_FLAG = "received_flag"  # received_Q, propositional (Section 5)
    MOVE = "move"                    # move_W / move_ENV, propositional


#: Kinds whose atoms may bind quantified variables under input-boundedness
#: (inputs, previous inputs and *flat* queue relations -- see Section 3.1).
INPUT_LIKE_KINDS = frozenset({
    RelationKind.INPUT,
    RelationKind.PREV_INPUT,
})

#: Propositional (arity-0) bookkeeping kinds derived from the schema.
DERIVED_KINDS = frozenset({
    RelationKind.PREV_INPUT,
    RelationKind.QUEUE_STATE,
    RelationKind.ERROR_FLAG,
    RelationKind.RECEIVED_FLAG,
    RelationKind.MOVE,
})


@record(frozen=True, slots=True)
class RelationSymbol:
    """A named relation with an arity, a kind, and queue attributes.

    ``nested`` is meaningful only for queue relations and distinguishes
    nested queues (set-valued messages) from flat queues (single-tuple
    messages).  ``owner`` names the peer the relation belongs to, or ``None``
    for unqualified/peer-local symbols.
    """

    name: str
    arity: int
    kind: RelationKind
    nested: bool = False
    owner: str | None = None

    def __post_init__(self) -> None:
        if self.arity < 0:
            raise SchemaError(f"negative arity for relation {self.name!r}")
        if self.nested and self.kind not in (
            RelationKind.IN_QUEUE, RelationKind.OUT_QUEUE,
        ):
            raise SchemaError(
                f"relation {self.name!r}: only queues can be nested"
            )

    @property
    def qualified_name(self) -> str:
        """The composition-schema name, ``owner.name`` when owned."""
        if self.owner is None:
            return self.name
        return f"{self.owner}.{self.name}"

    @property
    def is_queue(self) -> bool:
        return self.kind in (RelationKind.IN_QUEUE, RelationKind.OUT_QUEUE)

    @property
    def is_flat_queue(self) -> bool:
        return self.is_queue and not self.nested

    @property
    def is_nested_queue(self) -> bool:
        return self.is_queue and self.nested

    def qualify(self, owner: str) -> "RelationSymbol":
        """Return a copy of this symbol owned by *owner*."""
        return RelationSymbol(self.name, self.arity, self.kind,
                              self.nested, owner)

    def __str__(self) -> str:
        return f"{self.qualified_name}/{self.arity}[{self.kind.value}]"


class Schema:
    """An immutable collection of relation symbols with unique names.

    Lookup is by the name used in formulas: the bare name for peer-local
    schemas, the qualified ``Peer.relation`` name for composition schemas.
    """

    def __init__(self, symbols: Iterable[RelationSymbol] = ()) -> None:
        table: dict[str, RelationSymbol] = {}
        for sym in symbols:
            key = sym.qualified_name
            if key in table:
                raise SchemaError(f"duplicate relation name {key!r}")
            table[key] = sym
        self._table: Mapping[str, RelationSymbol] = dict(
            sorted(table.items())
        )

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __getitem__(self, name: str) -> RelationSymbol:
        try:
            return self._table[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def __iter__(self) -> Iterator[RelationSymbol]:
        return iter(self._table.values())

    def __len__(self) -> int:
        return len(self._table)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._table == other._table

    def __hash__(self) -> int:
        return hash(tuple(self._table))

    def get(self, name: str) -> RelationSymbol | None:
        """Return the symbol named *name*, or None."""
        return self._table.get(name)

    def names(self) -> tuple[str, ...]:
        """All relation names, sorted."""
        return tuple(self._table)

    def of_kind(self, *kinds: RelationKind) -> tuple[RelationSymbol, ...]:
        """All symbols whose kind is one of *kinds*, in name order."""
        wanted = set(kinds)
        return tuple(s for s in self if s.kind in wanted)

    def merge(self, other: "Schema") -> "Schema":
        """Union of two schemas; names must not collide."""
        return Schema(list(self) + list(other))

    def restrict(self, names: Iterable[str]) -> "Schema":
        """Sub-schema containing exactly the given names."""
        wanted = set(names)
        missing = wanted - set(self._table)
        if missing:
            raise SchemaError(f"unknown relations: {sorted(missing)}")
        return Schema(s for s in self if s.qualified_name in wanted)

    def __repr__(self) -> str:
        return f"Schema({', '.join(str(s) for s in self)})"


# -- Derived-symbol naming conventions ---------------------------------------

PREV_PREFIX = "prev_"
EMPTY_PREFIX = "empty_"
ERROR_PREFIX = "error_"
RECEIVED_PREFIX = "received_"
MOVE_PREFIX = "move_"
ENVIRONMENT_NAME = "ENV"


def prev_name(input_name: str) -> str:
    """Name of the previous-input relation for input *input_name*."""
    if "." in input_name:
        owner, base = input_name.rsplit(".", 1)
        return f"{owner}.{PREV_PREFIX}{base}"
    return f"{PREV_PREFIX}{input_name}"


def empty_name(queue_name: str) -> str:
    """Name of the ``empty_Q`` queue-state proposition for queue *queue_name*."""
    if "." in queue_name:
        owner, base = queue_name.rsplit(".", 1)
        return f"{owner}.{EMPTY_PREFIX}{base}"
    return f"{EMPTY_PREFIX}{queue_name}"


def error_name(queue_name: str) -> str:
    """Name of the deterministic-send ``error_Q`` flag for queue *queue_name*."""
    if "." in queue_name:
        owner, base = queue_name.rsplit(".", 1)
        return f"{owner}.{ERROR_PREFIX}{base}"
    return f"{ERROR_PREFIX}{queue_name}"


def received_name(queue_name: str) -> str:
    """Name of the ``received_Q`` proposition of Section 5."""
    if "." in queue_name:
        owner, base = queue_name.rsplit(".", 1)
        return f"{owner}.{RECEIVED_PREFIX}{base}"
    return f"{RECEIVED_PREFIX}{queue_name}"


def move_name(peer_name: str) -> str:
    """Name of the ``move_W`` proposition of the composition schema."""
    return f"{MOVE_PREFIX}{peer_name}"
