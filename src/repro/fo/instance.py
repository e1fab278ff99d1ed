"""Immutable relational instances.

An :class:`Instance` maps relation names to finite sets of tuples of domain
values.  Instances are hashable (so configurations built from them can be
used in visited sets during model checking) and support the small relational
vocabulary the rest of the library needs: union, update, projection of the
active domain, and convenient construction.

Propositional relations (arity 0) are stored as either the empty set
(false) or the set containing the empty tuple (true).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..errors import SchemaError
from ..obs import counter
from .schema import RelationSymbol, Schema
from .terms import Value, is_value, value_sort_key

#: One row of a relation.
Row = tuple[Value, ...]
#: The extension of a relation.
Rows = frozenset[Row]

TRUE_ROWS: Rows = frozenset({()})
FALSE_ROWS: Rows = frozenset()


def _freeze_rows(name: str, arity: int | None, rows: Iterable[Iterable[Value]]
                 ) -> Rows:
    frozen: set[Row] = set()
    for row in rows:
        tup = tuple(row)
        for v in tup:
            if not is_value(v):
                raise SchemaError(
                    f"relation {name!r}: {v!r} is not a legal domain value"
                )
        if arity is not None and len(tup) != arity:
            raise SchemaError(
                f"relation {name!r} has arity {arity}, got row of "
                f"length {len(tup)}: {tup!r}"
            )
        frozen.add(tup)
    return frozenset(frozen)


class Instance:
    """An immutable mapping from relation names to sets of rows.

    When constructed with a :class:`Schema`, row arities are validated and
    every schema relation is present (defaulting to empty).  Without a
    schema, the instance is free-form (used for intermediate views).
    """

    __slots__ = ("_data", "_hash", "_indexes")

    @classmethod
    def _from_frozen(cls, data: dict) -> "Instance":
        """Internal fast path: *data* maps names to ``Rows`` already.

        Skips re-freezing/validation; callers must pass frozensets of
        tuples only.  Used on the hot paths of the runtime.
        """
        self = cls.__new__(cls)
        self._data = dict(sorted(data.items()))
        self._hash = None
        self._indexes = None
        return self

    def __init__(self,
                 data: Mapping[str, Iterable[Iterable[Value]]] | None = None,
                 schema: Schema | None = None) -> None:
        table: dict[str, Rows] = {}
        data = dict(data or {})
        if schema is not None:
            unknown = set(data) - set(schema.names())
            if unknown:
                raise SchemaError(
                    f"instance mentions relations not in schema: "
                    f"{sorted(unknown)}"
                )
            for sym in schema:
                rows = data.get(sym.qualified_name, ())
                table[sym.qualified_name] = _freeze_rows(
                    sym.qualified_name, sym.arity, rows
                )
        else:
            for name, rows in data.items():
                table[name] = _freeze_rows(name, None, rows)
        self._data: Mapping[str, Rows] = dict(sorted(table.items()))
        self._hash: int | None = None
        self._indexes: dict | None = None

    # -- pickling ---------------------------------------------------------

    def __getstate__(self) -> dict:
        # indexes are derived and the memoized hash is process-dependent
        # (string hashing is seeded per interpreter); ship neither
        return self._data

    def __setstate__(self, state: dict) -> None:
        self._data = state
        self._hash = None
        self._indexes = None

    # -- mapping protocol -----------------------------------------------

    def __getitem__(self, name: str) -> Rows:
        return self._data.get(name, FALSE_ROWS)

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def relations(self) -> tuple[str, ...]:
        """Names of all relations explicitly present, sorted."""
        return tuple(self._data)

    def items(self) -> Iterator[tuple[str, Rows]]:
        return iter(self._data.items())

    # -- equality / hashing ----------------------------------------------

    def _canonical(self) -> tuple[tuple[str, Rows], ...]:
        """Name/rows pairs with empty relations dropped (for comparison)."""
        return tuple((n, r) for n, r in self._data.items() if r)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._canonical())
        return self._hash

    # -- queries -----------------------------------------------------------

    def extensions(self, names: Iterable[str]) -> list[Rows]:
        """The rows of each relation in *names*, in order."""
        get = self._data.get
        return [get(name, FALSE_ROWS) for name in names]

    def truth(self, name: str) -> bool:
        """Truth value of a propositional (arity-0) relation."""
        return bool(self[name])

    def is_empty(self, name: str) -> bool:
        """True iff relation *name* has no rows."""
        return not self[name]

    def rows_matching(self, name: str, positions: tuple[int, ...],
                      key: tuple[Value, ...]) -> tuple[Row, ...]:
        """Rows of *name* whose values at *positions* equal *key*.

        Served from a lazily built hash index on the bound positions
        (instances are immutable, so the index never invalidates).  The
        index replaces the atom matcher's full scan with one dict
        lookup; the build is linear in the relation and paid once per
        (relation, position-set) per instance.  Raises ``IndexError``
        when some row is shorter than a requested position -- callers
        fall back to the scanning path, which reports the arity clash.
        """
        if self._indexes is None:
            self._indexes = {}
        index = self._indexes.get((name, positions))
        if index is None:
            buckets: dict = {}
            for row in self[name]:
                k = tuple(row[p] for p in positions)
                bucket = buckets.get(k)
                if bucket is None:
                    buckets[k] = [row]
                else:
                    bucket.append(row)
            index = {k: tuple(rows) for k, rows in buckets.items()}
            self._indexes[(name, positions)] = index
            counter("fo.index_builds").inc()
        return index.get(key, ())

    def active_domain(self) -> frozenset[Value]:
        """All values occurring in any row of any relation."""
        dom: set[Value] = set()
        for rows in self._data.values():
            for row in rows:
                dom.update(row)
        return frozenset(dom)

    def total_rows(self) -> int:
        """Total number of rows across all relations."""
        return sum(len(rows) for rows in self._data.values())

    # -- construction helpers ------------------------------------------------

    def updated(self, name: str, rows: Iterable[Iterable[Value]]
                ) -> "Instance":
        """A copy with relation *name* replaced by *rows*."""
        data = dict(self._data)
        data[name] = _freeze_rows(name, None, rows)
        return Instance._from_frozen(data)

    def with_truth(self, name: str, value: bool) -> "Instance":
        """A copy with propositional relation *name* set to *value*."""
        return self.updated(name, TRUE_ROWS if value else FALSE_ROWS)

    def merged(self, other: "Instance") -> "Instance":
        """A copy including *other*'s relations (other wins on collision)."""
        data = dict(self._data)
        data.update(other._data)
        return Instance._from_frozen(data)

    def restricted(self, names: Iterable[str]) -> "Instance":
        """A copy keeping only the relations in *names*."""
        wanted = set(names)
        return Instance._from_frozen(
            {n: r for n, r in self._data.items() if n in wanted}
        )

    def qualified(self, owner: str) -> "Instance":
        """A copy with every relation name prefixed ``owner.``."""
        return Instance._from_frozen(
            {f"{owner}.{n}": r for n, r in self._data.items()}
        )

    def __repr__(self) -> str:
        parts = []
        for name, rows in self._data.items():
            if not rows:
                continue
            shown = sorted(rows, key=lambda t: tuple(map(value_sort_key, t)))
            parts.append(f"{name}={shown}")
        return f"Instance({', '.join(parts)})"


EMPTY_INSTANCE = Instance()


def empty_instance(schema: Schema) -> Instance:
    """An instance with every relation of *schema* empty."""
    return Instance({}, schema=schema)


def validate_against(instance: Instance, schema: Schema) -> None:
    """Raise :class:`SchemaError` unless *instance* fits *schema*."""
    for name in instance.relations():
        sym = schema.get(name)
        if sym is None:
            raise SchemaError(f"relation {name!r} not in schema")
        for row in instance[name]:
            if len(row) != sym.arity:
                raise SchemaError(
                    f"relation {name!r}: row {row!r} does not match "
                    f"arity {sym.arity}"
                )


def singleton(sym: RelationSymbol, row: Iterable[Value]) -> Instance:
    """An instance where *sym* holds exactly one row."""
    return Instance({sym.qualified_name: [tuple(row)]})
