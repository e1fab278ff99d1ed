"""Web service peers (Definition 2.1) and a fluent builder API.

A :class:`Peer` bundles the six relational schemas (database, state, input,
action, in-queues, out-queues) with the reaction rules.  Peers are built
through :class:`PeerBuilder`, which parses rule bodies against the peer's
*local* vocabulary (bare relation names, ``?Q`` in-queue atoms, ``prev_I``
previous-input atoms, ``empty_Q`` queue states, ``error_Q`` flags) and
validates each rule's vocabulary per Definition 2.1.

Example::

    officer = (
        PeerBuilder("O")
        .database("customer", 3)
        .input("reccom", 2)
        .state("application", 2)
        .flat_in_queue("apply", 2)
        .flat_out_queue("getRating", 1)
        .input_rule("reccom", ["id", "rec"],
                    'exists ssn, name: customer(id, ssn, name) '
                    '& (rec = "approve" | rec = "deny")')
        .insert_rule("application", ["id", "loan"], "?apply(id, loan)")
        .send_rule("getRating", ["ssn"],
                   "exists id, loan, name: ?apply(id, loan) "
                   "& customer(id, ssn, name)")
        .build()
    )
"""

from __future__ import annotations

from typing import Sequence

from .._record import field, record
from ..errors import SpecificationError
from ..fo.formulas import Formula, constants as formula_constants
from ..fo.parser import parse_fo
from ..fo.schema import (
    RelationKind, RelationSymbol, Schema,
    empty_name, error_name, prev_name,
)
from ..fo.terms import Value, Var
from .rules import Rule, RuleKind
from .validate import validate_rule_vocabulary


@record(frozen=True)
class Peer:
    """An immutable peer specification.

    Attributes mirror Definition 2.1; ``rules`` holds all reaction rules.
    ``local_schema`` is the vocabulary rule bodies are written in: the six
    schema parts plus the derived ``prev_I``, ``empty_Q`` and ``error_Q``
    symbols.
    """

    name: str
    database: tuple[RelationSymbol, ...]
    states: tuple[RelationSymbol, ...]
    inputs: tuple[RelationSymbol, ...]
    actions: tuple[RelationSymbol, ...]
    in_queues: tuple[RelationSymbol, ...]
    out_queues: tuple[RelationSymbol, ...]
    rules: tuple[Rule, ...]
    local_schema: Schema = field(repr=False)

    # -- derived queries -----------------------------------------------

    def relations(self) -> tuple[RelationSymbol, ...]:
        """The declared (non-derived) relations of the peer."""
        return (self.database + self.states + self.inputs + self.actions
                + self.in_queues + self.out_queues)

    def rules_of_kind(self, kind: RuleKind) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.kind == kind)

    def rule_for(self, kind: RuleKind, target: str) -> Rule | None:
        for r in self.rules:
            if r.kind == kind and r.target == target:
                return r
        return None

    def consumed_in_queues(self) -> frozenset[str]:
        """In-queues mentioned in some rule body (these dequeue on a move).

        Definition 2.4: an in-queue is dequeued on each of the peer's moves
        iff it is *mentioned* in the peer's rule set.
        """
        in_names = {q.name for q in self.in_queues}
        mentioned: set[str] = set()
        from ..fo.formulas import relations as formula_relations
        for rule in self.rules:
            mentioned |= formula_relations(rule.body) & in_names
        return frozenset(mentioned)

    def constants(self) -> frozenset[Value]:
        """All constant values occurring in the peer's rule bodies."""
        out: set[Value] = set()
        for rule in self.rules:
            out |= formula_constants(rule.body)
        return frozenset(out)

    def max_rule_variables(self) -> int:
        """Maximum number of distinct variables in any rule (head + body)."""
        from ..fo.formulas import all_vars
        best = 0
        for rule in self.rules:
            names = {v.name for v in rule.head}
            names |= {v.name for v in all_vars(rule.body)}
            best = max(best, len(names))
        return best

    def __str__(self) -> str:
        return f"Peer({self.name})"


class PeerBuilder:
    """Fluent construction of :class:`Peer` values.

    Declare all relations first, then add rules (rule bodies are parsed and
    validated eagerly against the declarations so errors point at the
    offending rule).
    """

    def __init__(self, name: str) -> None:
        if not name or "." in name:
            raise SpecificationError(f"invalid peer name {name!r}")
        self.name = name
        self._parts: dict[RelationKind, list[RelationSymbol]] = {
            RelationKind.DATABASE: [],
            RelationKind.STATE: [],
            RelationKind.INPUT: [],
            RelationKind.ACTION: [],
            RelationKind.IN_QUEUE: [],
            RelationKind.OUT_QUEUE: [],
        }
        self._rules: list[tuple[RuleKind, str, tuple[str, ...], str | Formula]] = []

    # -- schema declaration -------------------------------------------------

    def _declare(self, name: str, arity: int, kind: RelationKind,
                 nested: bool = False) -> "PeerBuilder":
        for symbols in self._parts.values():
            if any(s.name == name for s in symbols):
                raise SpecificationError(
                    f"peer {self.name}: relation {name!r} declared twice"
                )
        self._parts[kind].append(
            RelationSymbol(name, arity, kind, nested=nested)
        )
        return self

    def database(self, name: str, arity: int) -> "PeerBuilder":
        """Declare a database relation (fixed throughout the run)."""
        return self._declare(name, arity, RelationKind.DATABASE)

    def state(self, name: str, arity: int) -> "PeerBuilder":
        """Declare a state relation (updated by insert/delete rules)."""
        return self._declare(name, arity, RelationKind.STATE)

    def input(self, name: str, arity: int) -> "PeerBuilder":
        """Declare a user-input relation (holds at most one tuple)."""
        return self._declare(name, arity, RelationKind.INPUT)

    def action(self, name: str, arity: int) -> "PeerBuilder":
        """Declare an action relation (side effects, e.g. letters)."""
        return self._declare(name, arity, RelationKind.ACTION)

    def flat_in_queue(self, name: str, arity: int) -> "PeerBuilder":
        """Declare a flat in-queue (single-tuple messages)."""
        return self._declare(name, arity, RelationKind.IN_QUEUE, nested=False)

    def nested_in_queue(self, name: str, arity: int) -> "PeerBuilder":
        """Declare a nested in-queue (set-of-tuples messages)."""
        return self._declare(name, arity, RelationKind.IN_QUEUE, nested=True)

    def flat_out_queue(self, name: str, arity: int) -> "PeerBuilder":
        """Declare a flat out-queue."""
        return self._declare(name, arity, RelationKind.OUT_QUEUE, nested=False)

    def nested_out_queue(self, name: str, arity: int) -> "PeerBuilder":
        """Declare a nested out-queue."""
        return self._declare(name, arity, RelationKind.OUT_QUEUE, nested=True)

    # -- rules ------------------------------------------------------------

    def input_rule(self, target: str, head: Sequence[str],
                   body: str | Formula) -> "PeerBuilder":
        """``Options_target(head) <- body``."""
        self._rules.append((RuleKind.INPUT, target, tuple(head), body))
        return self

    def insert_rule(self, target: str, head: Sequence[str],
                    body: str | Formula) -> "PeerBuilder":
        """``target(head) <- body`` (state insertion)."""
        self._rules.append((RuleKind.INSERT, target, tuple(head), body))
        return self

    def delete_rule(self, target: str, head: Sequence[str],
                    body: str | Formula) -> "PeerBuilder":
        """``~target(head) <- body`` (state deletion)."""
        self._rules.append((RuleKind.DELETE, target, tuple(head), body))
        return self

    def action_rule(self, target: str, head: Sequence[str],
                    body: str | Formula) -> "PeerBuilder":
        """``target(head) <- body`` (action)."""
        self._rules.append((RuleKind.ACTION, target, tuple(head), body))
        return self

    def send_rule(self, target: str, head: Sequence[str],
                  body: str | Formula) -> "PeerBuilder":
        """``target(head) <- body`` (send into out-queue *target*)."""
        self._rules.append((RuleKind.SEND, target, tuple(head), body))
        return self

    # -- assembly -------------------------------------------------------------

    def local_schema(self) -> Schema:
        """The vocabulary available to this peer's rule bodies."""
        symbols: list[RelationSymbol] = []
        for part in self._parts.values():
            symbols.extend(part)
        for inp in self._parts[RelationKind.INPUT]:
            symbols.append(RelationSymbol(
                prev_name(inp.name), inp.arity, RelationKind.PREV_INPUT,
            ))
        for q in self._parts[RelationKind.IN_QUEUE]:
            symbols.append(RelationSymbol(
                empty_name(q.name), 0, RelationKind.QUEUE_STATE,
            ))
        for q in self._parts[RelationKind.OUT_QUEUE]:
            if not q.nested:
                symbols.append(RelationSymbol(
                    error_name(q.name), 0, RelationKind.ERROR_FLAG,
                ))
        return Schema(symbols)

    def build(self) -> Peer:
        """Validate everything and produce the immutable :class:`Peer`."""
        schema = self.local_schema()
        rules: list[Rule] = []
        seen: set[tuple[RuleKind, str]] = set()
        for kind, target, head, body in self._rules:
            sym = schema.get(target)
            if sym is None:
                raise SpecificationError(
                    f"peer {self.name}: rule targets unknown "
                    f"relation {target!r}"
                )
            expected_kind = {
                RuleKind.INPUT: RelationKind.INPUT,
                RuleKind.INSERT: RelationKind.STATE,
                RuleKind.DELETE: RelationKind.STATE,
                RuleKind.ACTION: RelationKind.ACTION,
                RuleKind.SEND: RelationKind.OUT_QUEUE,
            }[kind]
            if sym.kind != expected_kind:
                raise SpecificationError(
                    f"peer {self.name}: {kind.value} rule targets "
                    f"{target!r} of kind {sym.kind.value}"
                )
            if sym.arity != len(head):
                raise SpecificationError(
                    f"peer {self.name}: rule head for {target!r} has "
                    f"{len(head)} variables, relation arity is {sym.arity}"
                )
            if (kind, target) in seen:
                raise SpecificationError(
                    f"peer {self.name}: duplicate {kind.value} rule "
                    f"for {target!r}"
                )
            seen.add((kind, target))
            parsed = parse_fo(body, schema) if isinstance(body, str) else body
            rule = Rule(kind, target, tuple(Var(h) for h in head), parsed)
            validate_rule_vocabulary(self.name, rule, schema)
            rules.append(rule)

        # every input relation needs an input rule (Definition 2.1 requires
        # one for each input of arity > 0; propositional inputs may omit it,
        # defaulting to an always-available option)
        for inp in self._parts[RelationKind.INPUT]:
            if inp.arity > 0 and (RuleKind.INPUT, inp.name) not in seen:
                raise SpecificationError(
                    f"peer {self.name}: input {inp.name!r} has no input rule"
                )

        return Peer(
            name=self.name,
            database=tuple(self._parts[RelationKind.DATABASE]),
            states=tuple(self._parts[RelationKind.STATE]),
            inputs=tuple(self._parts[RelationKind.INPUT]),
            actions=tuple(self._parts[RelationKind.ACTION]),
            in_queues=tuple(self._parts[RelationKind.IN_QUEUE]),
            out_queues=tuple(self._parts[RelationKind.OUT_QUEUE]),
            rules=tuple(rules),
            local_schema=schema,
        )
