"""Conversation protocols (Section 4).

*Data-agnostic* protocols observe only the sequence of message names: the
alphabet is a set of channel names, and a snapshot satisfies the
proposition ``q`` iff a message was placed into channel ``q`` by the
transition producing that snapshot (observer-at-recipient) or a send into
``q`` fired (observer-at-source, Theorem 4.3's undecidable flavour).

*Data-aware* protocols (Definition 4.4) attach to each alphabet symbol an
FO formula over the out-queue schema (``C.Qout``), interpreted over the
message last enqueued into each queue; the Büchi automaton's transitions
are guarded by Boolean combinations of the symbols.

Protocols may be given either as a Büchi automaton over the alphabet or as
an LTL formula (strictly less expressive, per [28], but negation-friendly:
automaton-given protocols require Büchi complementation to verify).
"""

from __future__ import annotations

import enum
import itertools
from typing import Mapping

from .._record import record
from ..errors import FormulaError, SpecificationError
from ..fo import formulas as fo
from ..ltl.buchi import BuchiAutomaton, Edge, Guard
from ..ltl.formulas import LTLFormula, atom_payloads, lnot
from ..ltl.complement import complement
from ..ltl.translate import ltl_to_buchi
from ..ltlfo.parser import parse_ltlfo
from ..runtime.state import GlobalState


class Observer(enum.Enum):
    """Where the message observer sits (Section 4)."""

    RECIPIENT = "recipient"   # only actually-enqueued messages observed
    SOURCE = "source"         # all send attempts observed (Theorem 4.3)


def _ltl_over_names(formula_text: str) -> LTLFormula:
    """Parse an LTL formula whose atoms are bare (0-ary) message names.

    The LTL-FO parser is reused; payloads must be propositional atoms,
    which are then collapsed to their names.
    """
    sentence = parse_ltlfo(formula_text, schema=None)
    if sentence.variables:
        raise FormulaError(
            "protocol LTL formulas are propositional over message names; "
            f"found variables {[v.name for v in sentence.variables]}"
        )
    return _propositionalize(sentence.body)


def _payload_to_ltl(payload: fo.Formula) -> LTLFormula:
    """A Boolean FO payload over 0-ary atoms, as an LTL formula over names."""
    from ..ltl import formulas as ltl
    if isinstance(payload, fo.TrueF):
        return ltl.LTRUE
    if isinstance(payload, fo.FalseF):
        return ltl.LFALSE
    if isinstance(payload, fo.Atom):
        if payload.terms:
            raise FormulaError(
                f"protocol atoms must be bare message names, got {payload}"
            )
        return ltl.latom(payload.rel)
    if isinstance(payload, fo.Not):
        return ltl.lnot(_payload_to_ltl(payload.body))
    if isinstance(payload, fo.And):
        return ltl.land(*[_payload_to_ltl(c) for c in payload.children])
    if isinstance(payload, fo.Or):
        return ltl.lor(*[_payload_to_ltl(c) for c in payload.children])
    if isinstance(payload, fo.Implies):
        return ltl.limplies(_payload_to_ltl(payload.antecedent),
                            _payload_to_ltl(payload.consequent))
    raise FormulaError(
        f"protocol atoms must be Boolean over message names, got {payload}"
    )


def _propositionalize(formula: LTLFormula) -> LTLFormula:
    """Replace FO payloads by LTL structure over bare message names."""
    from ..ltl.formulas import (
        LAnd, LAtom, LFalse, LNext, LNot, LOr, LRelease, LTrue, LUntil,
    )
    if isinstance(formula, (LTrue, LFalse)):
        return formula
    if isinstance(formula, LAtom):
        return _payload_to_ltl(formula.ap)
    if isinstance(formula, LNot):
        return LNot(_propositionalize(formula.body))
    if isinstance(formula, LNext):
        return LNext(_propositionalize(formula.body))
    if isinstance(formula, (LAnd, LOr, LUntil, LRelease)):
        cls = type(formula)
        return cls(_propositionalize(formula.left),
                   _propositionalize(formula.right))
    raise FormulaError(f"not an LTL formula: {formula!r}")


@record(frozen=True)
class AgnosticProtocol:
    """A data-agnostic conversation protocol ``(Sigma, B)``.

    Exactly one of ``automaton``/``ltl`` is set.  ``ltl`` atoms and the
    automaton's APs are channel names.
    """

    alphabet: frozenset[str]
    automaton: BuchiAutomaton | None = None
    ltl: LTLFormula | None = None
    observer: Observer = Observer.RECIPIENT

    def __post_init__(self) -> None:
        if (self.automaton is None) == (self.ltl is None):
            raise SpecificationError(
                "provide exactly one of automaton= or ltl="
            )
        used = (
            self.automaton.aps if self.automaton is not None
            else atom_payloads(self.ltl)
        )
        extra = set(used) - set(self.alphabet)
        if extra:
            raise SpecificationError(
                f"protocol mentions names outside its alphabet: "
                f"{sorted(extra)}"
            )

    @classmethod
    def from_ltl(cls, formula: str | LTLFormula,
                 alphabet: frozenset[str] | None = None,
                 observer: Observer = Observer.RECIPIENT
                 ) -> "AgnosticProtocol":
        ltl = _ltl_over_names(formula) if isinstance(formula, str) else formula
        names = frozenset(alphabet or atom_payloads(ltl))
        return cls(alphabet=names, ltl=ltl, observer=observer)

    @classmethod
    def from_buchi(cls, automaton: BuchiAutomaton,
                   observer: Observer = Observer.RECIPIENT
                   ) -> "AgnosticProtocol":
        return cls(alphabet=frozenset(automaton.aps), automaton=automaton,
                   observer=observer)

    def violation_automaton(self) -> BuchiAutomaton:
        """An NBA accepting exactly the traces that *violate* the protocol."""
        if self.ltl is not None:
            return ltl_to_buchi(lnot(self.ltl))
        assert self.automaton is not None
        return complement(self.automaton)

    def letter_of(self, state: GlobalState) -> frozenset:
        events = (
            state.enqueued if self.observer is Observer.RECIPIENT
            else state.sent
        )
        return frozenset(events & self.alphabet)


@record(frozen=True)
class DataAwareProtocol:
    """A data-aware protocol ``(Sigma, B, {phi_sigma})`` (Definition 4.4).

    ``symbols`` maps each alphabet symbol to an FO formula over the
    composition's out-queue schema.  Formulas may share free variables;
    the protocol holds iff it holds for every valuation of those variables
    over the run's active domain.  Only observer-at-recipient semantics is
    supported (Theorem 4.3 shows the source flavour undecidable; out-queue
    atoms read the message last enqueued).
    """

    symbols: Mapping[str, fo.Formula]
    automaton: BuchiAutomaton | None = None
    ltl: LTLFormula | None = None

    def __post_init__(self) -> None:
        if (self.automaton is None) == (self.ltl is None):
            raise SpecificationError(
                "provide exactly one of automaton= or ltl="
            )
        used = (
            self.automaton.aps if self.automaton is not None
            else atom_payloads(self.ltl)
        )
        extra = set(used) - set(self.symbols)
        if extra:
            raise SpecificationError(
                f"protocol mentions undeclared symbols: {sorted(extra)}"
            )

    def free_variables(self) -> tuple:
        out: set = set()
        for formula in self.symbols.values():
            out |= fo.free_vars(formula)
        return tuple(sorted(out, key=lambda v: v.name))

    def constants(self) -> frozenset:
        out: set = set()
        for formula in self.symbols.values():
            out |= fo.constants(formula)
        return frozenset(out)

    def violation_automaton(self) -> BuchiAutomaton:
        if self.ltl is not None:
            return ltl_to_buchi(lnot(self.ltl))
        assert self.automaton is not None
        return complement(self.automaton)


def guards_from_formula(formula: fo.Formula,
                        symbols: frozenset[str]) -> list[Guard]:
    """Expand a Boolean formula over propositional symbols into guards.

    Definition 4.4 guards automaton transitions with Boolean formulas over
    the protocol symbols; our :class:`Guard` representation is a literal
    conjunction, so general formulas are expanded by truth-table over the
    symbols they mention.
    """
    mentioned = sorted(fo.relations(formula) & symbols)
    guards: list[Guard] = []
    for bits in itertools.product((False, True), repeat=len(mentioned)):
        assignment = dict(zip(mentioned, bits))
        from ..fo.instance import Instance
        inst = Instance({
            name: [()] for name, bit in assignment.items() if bit
        })
        from ..fo.evaluator import evaluate
        if evaluate(formula, inst, ()):
            guards.append(Guard(
                pos=frozenset(n for n, b in assignment.items() if b),
                neg=frozenset(n for n, b in assignment.items() if not b),
            ))
    return guards


def protocol_automaton(states, initial, transitions, accepting,
                       alphabet: frozenset[str]) -> BuchiAutomaton:
    """Build a protocol Büchi automaton from guarded transitions.

    ``transitions`` is a list of ``(src, guard, dst)`` where ``guard`` is a
    :class:`Guard`, a Boolean formula string over the alphabet symbols, or
    an :class:`~repro.fo.formulas.Formula`.
    """
    from ..fo.parser import parse_fo
    edges: list[Edge] = []
    for src, guard, dst in transitions:
        if isinstance(guard, Guard):
            edges.append(Edge(src, guard, dst))
            continue
        formula = parse_fo(guard) if isinstance(guard, str) else guard
        for g in guards_from_formula(formula, alphabet):
            edges.append(Edge(src, g, dst))
    return BuchiAutomaton(states, initial, edges, accepting, alphabet)
