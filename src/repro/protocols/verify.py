"""Protocol-compliance checking (Theorems 4.2 and 4.5).

A composition satisfies a conversation protocol iff every run's trace is
accepted by the protocol automaton.  Verification searches the product of
the composition's snapshot graph, one
:class:`~repro.verifier.graph.SharedExploration`, with an automaton for
the *complement* of the protocol language (negated LTL, or rank/DBA
complementation for automaton-given protocols) for an accepting lasso, in
the valuation loop the LTL-FO verifier uses
(:func:`~repro.verifier.ltlfo_verifier.sweep_valuations`).
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

from ..errors import VerificationError
from ..fo import formulas as fo
from ..fo.instance import Instance
from ..ltl.buchi import BuchiAutomaton
from ..ltl.formulas import land
from ..ltl.translate import ltl_to_buchi
from ..runtime.run import Lasso
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from ..verifier.atoms import InternedSnapshotEvaluator, OccursAtom, bit_table
from ..verifier.domain import (
    VerificationDomain, canonical_valuations, verification_domain,
)
from ..verifier.graph import SharedExploration
from ..verifier.ltlfo_verifier import occurs_terms, sweep_valuations
from ..verifier.product import SearchBudget
from ..verifier.result import VerificationResult
from .base import AgnosticProtocol, DataAwareProtocol


class CallbackEvaluator:
    """Per-node AP valuation driven by a callback, with caching: the
    letters of agnostic protocols, whose APs are channel events.

    ``bits`` is its bit table and ``letter`` returns the mask of the APs
    ``truth`` holds of at a node.
    """

    def __init__(self, aps: frozenset,
                 truth: Callable[[Hashable, Hashable], bool]) -> None:
        self.bits = bit_table(aps)
        self._truth = truth
        self._cache: dict = {}

    def letter(self, node) -> int:
        cached = self._cache.get(node)
        if cached is None:
            cached = 0
            for ap, bit in self.bits.items():
                if self._truth(ap, node):
                    cached |= bit
            self._cache[node] = cached
        return cached


def verify_agnostic(composition: Composition,
                    protocol: AgnosticProtocol,
                    databases: Mapping[str, Instance],
                    semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                    domain: VerificationDomain | None = None,
                    budget: SearchBudget | None = None,
                    ) -> VerificationResult:
    """Check compliance with a data-agnostic protocol (Theorem 4.2).

    Observer-at-source protocols are checked with the same product
    machinery (letters become send events).  For a fixed database and
    domain the check is exact; Theorem 4.3's undecidability concerns the
    unrestricted problem.  The protocol has no closure variables, so the
    sweep checks the one empty valuation.
    """
    unknown = set(protocol.alphabet) - {
        c.name for c in composition.channels
    }
    if unknown:
        raise VerificationError(
            f"protocol alphabet mentions unknown channels {sorted(unknown)}"
        )
    if domain is None:
        domain = verification_domain(composition, [], databases)
    exploration = SharedExploration(composition, databases, domain.values,
                                    semantics, budget=budget)
    text = (f"agnostic protocol over {sorted(protocol.alphabet)} "
            f"({protocol.observer.value})")

    def unit(_valuation):
        nba = protocol.violation_automaton()
        return nba, CallbackEvaluator(
            frozenset(nba.aps),
            lambda ap, sid: ap in protocol.letter_of(
                exploration.state_of(sid)),
        )

    return sweep_valuations([{}], exploration, unit, text, domain,
                            semantics)


def verify_aware(composition: Composition,
                 protocol: DataAwareProtocol,
                 databases: Mapping[str, Instance],
                 semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                 domain: VerificationDomain | None = None,
                 budget: SearchBudget | None = None,
                 ) -> VerificationResult:
    """Check compliance with a data-aware protocol (Theorem 4.5).

    The protocol's free variables are universally quantified over the
    run's active domain: each canonical valuation is checked, with
    ``F occurs(v)`` constraints forcing fresh valuation values to appear
    in the counterexample run (mirroring the LTL-FO verifier, whose
    letter classes it shares: a valuation binds each symbol to its
    formula instantiated under the valuation).
    """
    variables = protocol.free_variables()
    if domain is None:
        domain = verification_domain(composition, [], databases)
        if protocol.constants() - set(domain.constants):
            extra = tuple(sorted(
                set(protocol.constants()) - set(domain.constants),
                key=str,
            ))
            domain = VerificationDomain(
                domain.constants + extra, domain.fresh
            )
    exploration = SharedExploration(composition, databases, domain.values,
                                    semantics, budget=budget)
    text = f"data-aware protocol over {sorted(protocol.symbols)}"
    violation = protocol.violation_automaton()
    #: occurs tuple -> the violation automaton intersected with it
    automata: dict[tuple, BuchiAutomaton] = {}

    def unit(valuation):
        occurs = tuple(occurs_terms(valuation, domain))
        nba = automata.get(occurs)
        if nba is None:
            nba = automata[occurs] = (
                violation.intersection(ltl_to_buchi(land(*occurs)))
                if occurs else violation)
        binding = {ap: ap if isinstance(ap, OccursAtom)
                   else fo.instantiate(protocol.symbols[ap], valuation)
                   for ap in nba.aps}
        return nba, InternedSnapshotEvaluator(
            composition, domain.values, binding, exploration.shared)

    return sweep_valuations(canonical_valuations(variables, domain),
                            exploration, unit, text, domain, semantics)


def trace_of(lasso: Lasso, protocol: AgnosticProtocol
             ) -> tuple[list[frozenset], list[frozenset]]:
    """The protocol-alphabet trace (prefix, cycle) of a lasso run."""
    prefix = [protocol.letter_of(s) for s in lasso.prefix]
    cycle = [protocol.letter_of(s) for s in lasso.cycle]
    return prefix, cycle
